(** The ten boundary-value-generation patterns of the paper (§6). *)

type t =
  | P1_1  (** the boundary literal pool itself *)
  | P1_2  (** substitute boundary literals as arguments *)
  | P1_3  (** splice 99999 runs into formatted string literals *)
  | P1_4  (** duplicate characters inside string literals *)
  | P2_1  (** explicit CAST around arguments *)
  | P2_2  (** implicit casting via UNION *)
  | P2_3  (** implicit casting by swapping arguments across functions *)
  | P3_1  (** REPEAT a prefix of the argument a boundary number of times *)
  | P3_2  (** wrap the expression in another function *)
  | P3_3  (** replace an argument with another function expression *)

let all = [ P1_1; P1_2; P1_3; P1_4; P2_1; P2_2; P2_3; P3_1; P3_2; P3_3 ]

let to_string = function
  | P1_1 -> "P1.1"
  | P1_2 -> "P1.2"
  | P1_3 -> "P1.3"
  | P1_4 -> "P1.4"
  | P2_1 -> "P2.1"
  | P2_2 -> "P2.2"
  | P2_3 -> "P2.3"
  | P3_1 -> "P3.1"
  | P3_2 -> "P3.2"
  | P3_3 -> "P3.3"

(** The three root-cause families of §5. *)
type family = Literal | Casting | Nested

let family = function
  | P1_1 | P1_2 | P1_3 | P1_4 -> Literal
  | P2_1 | P2_2 | P2_3 -> Casting
  | P3_1 | P3_2 | P3_3 -> Nested

let family_to_string = function
  | Literal -> "boundary literal values"
  | Casting -> "boundary type castings"
  | Nested -> "boundary results of nested functions"

(* Whether a pattern's case family shares one statement skeleton, i.e.
   its members differ only in literal leaves. These are the patterns
   whose families stream as batches and compile: one plan serves the
   whole family. The others vary the skeleton itself per case — P2.1
   bakes the CAST target type into the tree, P3.2/P3.3 change the
   function nesting, P2.2 varies subquery interiors — so their families
   are measured >90% skeleton-singletons and compiling them costs more
   than interpreting. *)
let shares_skeleton = function
  | P1_1 | P1_2 | P1_3 | P1_4 | P2_3 | P3_1 -> true
  | P2_1 | P2_2 | P3_2 | P3_3 -> false
