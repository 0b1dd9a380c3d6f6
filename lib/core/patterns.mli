(** The ten boundary-value-generation patterns (§6) as statement
    generators.

    Each pattern is defined once, as a lazy stream of position
    families: for every substitution position in the collected seeds
    (an argument of a call, or for P2.3 the whole call), the seed, the
    statement builder for that position and the variants the pattern
    plants there, in generation order. P1.1 is the pool itself, one
    family of bare [SELECT <literal>] probes. {!generate} and
    {!generate_work} are two drivers over the same families: one case
    per variant, or the same cases cut into runs that carry the
    family's builder and the planted variants. Per Finding 3,
    seeds already containing more than two function expressions are not
    expanded further by the nesting patterns. *)

open Sqlfun_ast
open Sqlfun_fault
open Sqlfun_functions

type case = {
  stmt : Ast.stmt;
  pattern : Pattern_id.t;
  origin : string;  (** SQL of the seed this case was derived from *)
}

val generate :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  Pattern_id.t ->
  case Seq.t
(** Cases for one pattern: the per-case driver, one case per variant of
    each position family, built by the family's statement builder.
    [P1_1] yields the pool itself as bare [SELECT <literal>] probes.
    With [telemetry], forcing each case out of
    the lazy sequence is timed as a ["generate"] span tagged with the
    pattern — generation is interleaved with execution, so this is the
    only honest way to attribute its cost. *)

val count_positions : Collector.seed list -> int
(** Number of (call, argument) substitution slots across the seeds —
    reported by the CLI and exercised in tests. *)

(** A stateful scenario: prerequisite statements (CREATE TABLE shapes
    with boundary-typed columns, INSERTs carrying boundary literals,
    session/sequence setups) followed by one probe case. The detector
    executes the prerequisites, classifies the probe, and restores the
    engine's post-seed storage baseline afterwards, so each scenario's
    verdict is a pure function of its statement list. *)
type scenario = { prereqs : Ast.stmt list; case : case }

val generate_scenarios :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  unit ->
  scenario Seq.t
(** The synthesized stateful stream, five kinds round-robin interleaved
    (stored-boundary probes, INSERT-position and WHERE-position
    substitutions, session/sequence state, extreme-typed columns) so a
    budget-truncated prefix samples every kind — and therefore every
    occurrence stage (parse / execute / storage) — early.
    Deterministic: re-enumerating yields the identical stream. *)

val count_scenario_positions : scenario Seq.t -> int
(** Substitution slots across the scenario probes (INSERT/WHERE
    expression positions included) — the stateful share of the CLI
    "positions" line. Forces the sequence. *)

(** A slot-stream batch: one run of a position family. [b_build] is the
    family's statement builder and [b_members] are the variants it
    plants, in generation order; member [v]'s statement is [b_build v],
    the statement {!generate} emits for it. Members of a run of two or
    more are skeleton-equal ({!Ast_util.equal_skeleton_expr}) and each
    has at least one literal leaf, so they differ only in the literal
    slots their variant fills: the executor compiles [b_build] of the
    first member once and runs the members as fill-window → eval →
    classify. *)
type batch = {
  b_pattern : Pattern_id.t;
  b_origin : string;
  b_build : Ast.expr -> Ast.stmt;
  b_members : Ast.expr list;  (** the planted variants, in order *)
}

(** The unit of work, executed by {!Detector.run}: a pattern-less
    statement (a seed replay or a baseline tool's statement, counted
    under pattern ["seed"]), a scenario (a skeleton-varying case or a
    stateful scenario), or a run of a skeleton-sharing family. *)
type work = Seed of Ast.stmt | Single of scenario | Batched of batch

val batch_size : batch -> int
val work_size : work -> int

val split_batch : batch -> int -> batch * batch
(** [split_batch b k] splits the member list at [k] (clamped), sharing
    the builder — how the budgeted enumeration cuts a run at a
    budget-share boundary without re-deriving it. *)

val generate_work :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  Pattern_id.t ->
  work Seq.t
(** The batched driver over the same position families as {!generate}.
    When {!Pattern_id.shares_skeleton} holds (P1.1–P1.4, P2.3, P3.1),
    each family becomes [Batched] runs: maximal runs of consecutive
    skeleton-equal variants with at least one literal leaf, and a run of
    one for each other variant; otherwise (P2.1, P2.2, P3.2, P3.3) each
    case is a [Single]. Flattening the runs with [b_build] reproduces
    {!generate}'s stream element for element — same statements, same
    order. *)
