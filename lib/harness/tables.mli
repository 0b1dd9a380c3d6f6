(** Text renderers that regenerate every table and figure of the paper,
    printing paper-reported values next to the values measured on this
    reproduction, and the campaigns the Section 7 tables are measured
    on. *)

val table1 : unit -> string
(** Studied bugs per DBMS. *)

val finding1 : unit -> string
val figure1 : unit -> string
(** Occurrences and unique functions per type, as an ASCII bar chart. *)

val table2 : unit -> string
val finding3 : unit -> string
val finding4 : unit -> string
val root_causes : unit -> string
(** §5 and §6 shares. *)

val table3 : unit -> string
(** Example literals generated by Patterns 1.3 and 1.4. *)

val table4 : Soft.Soft_runner.result list -> string
(** Bugs found by SOFT per dialect/category/kind/pattern/status. *)

val table4_totals : Soft.Soft_runner.result list -> string
(** §7.3's summary: per-kind counts, pattern-family counts, FP count.
    A bug counts in the family of the pattern that found it
    ([found_by]); a seed-found bug counts in no family. *)

val table5 : Compare.run list -> string
val table6 : Compare.run list -> string
val bugs_in_budget : Compare.run list -> string
val figure2 : Soft.Soft_runner.result list -> string
(** Developer-feedback summary: confirmed/fixed per dialect. *)

(** {2 The paper's campaigns} *)

val paper_campaign :
  ?patterns:Sqlfun_fault.Pattern_id.t list ->
  Sqlfun_dialects.Dialect.profile ->
  Soft.Soft_runner.result
(** One exhaustive campaign as Section 7 runs it: the ten pattern
    streams ({!Soft.Soft_runner.fuzz}, restricted to [patterns] when
    given) without the stateful scenario stream, whose 14 staged parse-
    and storage-stage sites are not in Table 4. *)

val paper_campaigns :
  ?budget:int -> ?jobs:int -> ?shards:int -> unit -> Soft.Soft_runner.result list
(** The same policy on every dialect, paper order
    ({!Soft.Soft_runner.fuzz_all} without the scenario stream; [budget],
    [jobs] and [shards] mean what they mean there). Together with
    {!paper_campaign} this is where every campaign behind a paper table
    is run. *)

(** {2 Sections}

    Each section is the print sequence of one part of the paper, shared
    by [soft_cli] and the bench. *)

val study_section : unit -> string
(** Sections 4-5: Table 1, Finding 1, Figure 1, Table 2, Findings 3-4
    and the root causes. *)

val campaign_section : Soft.Soft_runner.result list -> string
(** Table 4, the Section 7.3 totals and Figure 2. *)

val comparison_section : Compare.run list -> string
(** Tables 5-6 and the bugs found under the shared budget. *)
