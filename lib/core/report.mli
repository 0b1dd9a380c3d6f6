(** Campaign and bug-report rendering — the artifact SOFT's detection
    step logs "for bug reporting" (§7.1).

    A campaign's run statistics are stated once, as a {!summary}: the
    [fuzz] stdout lines, the [--report] markdown header and the
    [--json] [totals] and [compact] objects all render from it. Every
    bug renderer names the pattern a bug is credited to by
    {!Detector.pattern_tag} (["seed"] for a seed replay) and its paper
    family, ["seed replay"] for a seed. *)

(** {1 Bugs} *)

val bug_summary_line : Detector.found_bug -> string
(** One line: crash class, dialect, function, site, pattern and PoC —
    how [fuzz] lists each bug under its summary. *)

val bug_to_markdown : Detector.found_bug -> string
(** One markdown section: the PoC to paste into the vendor tracker, the
    observed crash class, and the boundary condition that explains it. *)

(** {1 Campaign summary} *)

(** Where a row's values live in the [--json] snapshot: keys of
    [totals], or of the object [compact], which sits outside [totals]
    because it counts value representations, not verdicts. *)
type home = Totals | Compact

type row = {
  label : string;  (** e.g. ["statements executed"] *)
  text : string;  (** the values as shown after the label *)
  home : home;
  fields : (string * Sqlfun_telemetry.Json.t) list;
      (** the JSON keys this row owns under [home], with their values *)
}

type summary = row list
(** In [totals] key order; the throughput row sits between the stage
    attribution and the verdict counts. *)

val summary : Soft_runner.result -> summary
(** The only summary code that reads the collector's compact
    counters. *)

val summary_lines : summary -> string list
(** ["label:   text"], labels padded to one column, in row order except
    that the bug count comes last (the bug list follows it). *)

val campaign_to_markdown : Soft_runner.result -> string
(** Full campaign report: a header of {!summary_lines} as a bullet
    list, a "Stage timing" table (per-stage calls, total ms,
    p50/p99/max), a "Hottest functions" attribution table (dialect x
    function self-times from the execute-stage profiler), then one
    {!bug_to_markdown} section per bug in discovery order. *)

val campaign_to_json : Soft_runner.result -> Sqlfun_telemetry.Json.t
(** The machine-readable campaign snapshot written by [--json FILE]:
    the {!summary} rows under their homes, per-stage wall-time,
    execute-stage attribution ([profile], outside [totals] like all
    wall-time bookkeeping), per-pattern-family and per-pattern verdict
    counters, the bug list with PoCs, FP signatures, and the coverage
    slice. Schema tag: ["soft-telemetry/2"]. *)
