(** The ten boundary-value-generation patterns (§6) and the stateful
    scenario kinds as statement generators.

    Every generated case is a member of a position family: for every
    substitution position in the collected seeds (an argument of a
    call, or for P2.3 the whole call), the family holds the seed, a
    builder that makes each member's case, and the values the pattern
    plants there, in generation order. P1.1 is the pool itself, one
    family of bare [SELECT <literal>] probes. Per Finding 3, seeds
    already containing more than two function expressions are not
    expanded further by the nesting patterns.

    The stateful scenario kinds are position families as well: a
    scenario's case is its prerequisite statements (CREATE TABLE shapes
    with boundary-typed columns, INSERTs carrying boundary literals,
    session/sequence setups), then the probe.

    Each stream has two drivers over the same families: one case per
    member ({!generate}, {!generate_scenarios}), or work items that
    carry the families ({!generate_work}, {!generate_scenario_work}).
    {!scenario_positions} counts the scenarios' slots per family. *)

open Sqlfun_ast
open Sqlfun_fault
open Sqlfun_functions

type case = {
  prereqs : Ast.stmt list;
      (** run first, on the probe's session; [[]] for a pattern case *)
  stmt : Ast.stmt;  (** the probe *)
  pattern : Pattern_id.t;
  origin : string;
      (** SQL of the seed this case was derived from, or the scenario
          kind (["scenario:stored"], …) *)
}

(** One position family. Member [i] plants the [i]-th value [v] of
    [f_members], and its case is [f_build i v]: the case {!generate} or
    {!generate_scenarios} emits for it. Only scenario kinds that rotate
    a wrapper function read [i]. *)
type family = {
  f_pattern : Pattern_id.t;
  f_origin : string;
  f_build : int -> Ast.expr -> case;
  f_members : Ast.expr list;  (** the planted values, in order; never empty *)
}

(** The unit of work, executed by {!Detector.run}: a pattern-less
    statement (a seed replay or a baseline tool's statement, counted
    under pattern ["seed"]), or a position family. *)
type work = Seed of Ast.stmt | Family of family

val work_size : work -> int
(** Its cases: 1 for a seed, the member count for a family. *)

val split_family : family -> int -> family * family
(** [split_family f k] splits the members at [k] (clamped): how the
    budgeted enumeration cuts a family at a budget-share boundary
    without re-deriving it. The second part's member [i] is [f]'s
    member [k + i] and builds the same case. *)

val generate :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  Pattern_id.t ->
  case Seq.t
(** Cases for one pattern: the per-case driver, one case per member of
    each position family. [P1_1] yields the pool itself as bare
    [SELECT <literal>] probes. With [telemetry], forcing each element
    out of the lazy sequence is timed as a ["generate"] span tagged
    with the pattern — generation is interleaved with execution, so
    this is the only honest way to attribute its cost. *)

val generate_work :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  Pattern_id.t ->
  work Seq.t
(** The work driver over the same families as {!generate}: one
    [Family] item per position family. Flattening the items reproduces
    {!generate}'s stream element for element. *)

val count_positions : Collector.seed list -> int
(** Number of (call, argument) substitution slots across the seeds —
    reported by the CLI and exercised in tests. *)

val generate_scenarios :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  unit ->
  case Seq.t
(** The synthesized stateful stream, one case (a scenario) per planted
    value. Its five kinds (stored-boundary probes, INSERT-position and
    WHERE-position substitutions, session/sequence state,
    extreme-typed columns) are streams of position families, and the
    kinds are round-robin interleaved, case by case, so a
    budget-truncated prefix samples every kind — and therefore every
    occurrence stage (parse / execute / storage) — early.
    Deterministic: re-enumerating yields the identical stream. *)

val generate_scenario_work :
  ?telemetry:Sqlfun_telemetry.Telemetry.t ->
  registry:Registry.t ->
  seeds:Collector.seed list ->
  unit ->
  work Seq.t
(** The work driver over {!generate_scenarios}' families: each scenario
    is a one-member [Family] item, in the same interleaved order, so
    flattening the items reproduces {!generate_scenarios} element for
    element. Its case is built only when the item runs. *)

val scenario_positions :
  registry:Registry.t -> seeds:Collector.seed list -> int
(** Substitution slots across the probes of {!generate_scenarios}
    (INSERT/WHERE expression positions included) — the stateful share
    of the CLI "positions" line. Counted per family, as its planted
    values times the slots of its first probe, so no other scenario is
    built. *)
