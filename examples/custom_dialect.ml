(** The downstream-user scenario: build an *eighth* dialect with a custom
    built-in function that has a boundary flaw, and let SOFT find it.

    This is the workflow a DBMS developer would use to test their own
    function implementations before shipping: declare the function, state
    the suspected boundary condition as a fault spec, point SOFT at it.

    Run with: [dune exec examples/custom_dialect.exe] *)

open Sqlfun_value
open Sqlfun_fault
open Sqlfun_functions
open Sqlfun_engine

(* 1. A custom built-in: SHOUT(s, n) = upper-case s followed by n bangs.
   The implementation has a classic boundary slip: it "forgets" to check
   huge n (the real check below is deliberately modelled as the fault
   spec, so the unfaulted engine behaves correctly). *)
let shout_fn =
  Func_sig.scalar ~category:"string" "SHOUT" ~min_args:2 ~max_args:(Some 2)
    ~hints:[ Func_sig.H_str; Func_sig.H_int ] ~examples:[ "SHOUT('hey', 3)" ]
    (fun ctx args ->
      let s = Args.str ctx args 0 in
      let n = Args.int_ ctx args 1 in
      if n < 0L || n > 1000L then
        raise (Fn_ctx.Sql_error "SHOUT: bang count out of range");
      Value.Str (String.uppercase_ascii s ^ String.make (Int64.to_int n) '!'))

(* 2. The suspected flaw, stated as a boundary condition: versions before
   the fix crashed when the count was a huge literal. *)
let shout_bug =
  {
    Fault.site = "acme/shout/huge-count";
    dialect = "acme";
    func = "SHOUT";
    category = "string";
    kind = Bug_kind.Hbof;
    pattern = Pattern_id.P1_2;
    status = Fault.Confirmed;
    stage = Fault.Execute;
    trigger = Fault.Arg_at (1, Fault.All_of [ Fault.From_literal; Fault.Abs_int_ge 99999L ]);
    note = "bang buffer sized for at most 1000 repetitions";
  }

let () =
  (* 3. Assemble the dialect: the stock library plus SHOUT. *)
  let registry = All_fns.registry () in
  Registry.add registry shout_fn;
  let fault = Fault.make [ shout_bug ] in
  Fault.arm fault;
  let engine =
    Engine.create ~fault ~registry
      ~cast_cfg:{ Cast.strictness = Cast.Lenient; json_max_depth = Some 512 }
      ~dialect:"acme" ()
  in
  (* normal use works *)
  (match Engine.exec_sql engine "SELECT SHOUT('ship it', 3)" with
   | Ok o -> print_endline (Engine.outcome_to_string o)
   | Error e -> print_endline (Engine.error_to_string e));

  (* 4. Point SOFT's machinery at it: collect from the docs example,
     generate pattern cases, execute. We drive the pieces directly since
     this dialect is not one of the seven stock profiles. *)
  let seeds =
    Soft.Collector.collect ~registry ~suite:[ "SELECT SHOUT('release', 2)" ] ()
  in
  let cases =
    List.to_seq Pattern_id.all
    |> Seq.concat_map
         (Soft.Patterns.families ~registry ~seeds
            ~donors:(Soft.Collector.donors seeds))
    |> Seq.concat_map Soft.Patterns.family_cases
  in
  let found = ref None in
  let executed = ref 0 in
  (try
     Seq.iter
       (fun (case : Soft.Patterns.case) ->
         incr executed;
         match Engine.exec_stmt engine case.Soft.Patterns.stmt with
         | Ok _ | Error _ -> ()
         | exception Fault.Crash spec ->
           found := Some (spec, case);
           raise Exit)
       cases
   with Exit -> ());
  match !found with
  | Some (spec, case) ->
    Printf.printf
      "SOFT found the planted bug after %d statements:\n  site: %s\n  poc:  %s\n  via:  %s\n"
      !executed spec.Fault.site
      (Sqlfun_ast.Sql_pp.stmt case.Soft.Patterns.stmt)
      (Pattern_id.to_string case.Soft.Patterns.pattern)
  | None -> Printf.printf "no crash in %d statements (unexpected)\n" !executed
