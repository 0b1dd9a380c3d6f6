(** Byte-string codecs and digests used by string functions. *)

val hex_encode : ?prefix:string -> string -> string
(** Uppercase hex, two digits per byte, after [prefix] (default empty)
    in the same allocation. The one hex encoder: [HEX()], BLOB display
    and the SQL printer's [X'..'] literals all go through it. *)

val hex_decode : string -> string option
(** [None] on odd length or non-hex characters. *)

val base64_encode : string -> string
val base64_decode : string -> string option

val fnv1a_64 : string -> int64
(** 64-bit FNV-1a — the stand-in for MD5/SHA-style digest functions; what
    matters for the reproduction is a deterministic avalanche digest, not
    cryptographic strength. *)

val digest_hex : string -> string
(** 32 hex chars derived from two FNV passes (an MD5-shaped output). *)

val crc32 : string -> int64
