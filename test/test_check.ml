(* Unit tests for the stm_check fuzzing stack: the serializability
   oracle on hand-built histories, the shrinker, the generator, the
   repro (de)serialization, replay determinism, and the quiescence
   publish/privatize regression. *)

open Stm_check

(* ------------------------------------------------------------------ *)
(* Hand-built histories for the graph oracle                           *)
(* ------------------------------------------------------------------ *)

let node ?(txn = true) ~id ~tid ~stamp ~reads ~writes () =
  { History.id; tid; txn; stamp; tag = None; reads; writes }

let cell i = History.Cell i

let vi n = History.Vi n

let check_anomaly = Alcotest.(check bool)

let test_graph_serializable () =
  (* T0 writes c0; T1 reads that write and overwrites it: a clean
     wr-chain, final state is the last version. *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0
            ~reads:[ (cell 0, vi 0) ]
            ~writes:[ (cell 0, vi 10) ]
            ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 10) ]
            ~writes:[ (cell 0, vi 20) ]
            ();
        ];
      final = [ (cell 0, vi 20) ];
    }
  in
  check_anomaly "wr chain accepted" true (History.check_graph h = None)

(* Write skew: each transaction reads the initial value of the cell the
   other one writes. Both rw edges point opposite ways - the canonical
   serializable/SI separator, shared by the graph and SI tests below. *)
let write_skew_history =
  {
    History.init = [ (cell 0, vi 0); (cell 1, vi 0) ];
    nodes =
      [
        node ~id:0 ~tid:0 ~stamp:0
          ~reads:[ (cell 0, vi 0) ]
          ~writes:[ (cell 1, vi 10) ]
          ();
        node ~id:1 ~tid:1 ~stamp:1
          ~reads:[ (cell 1, vi 0) ]
          ~writes:[ (cell 0, vi 20) ]
          ();
      ];
    final = [ (cell 0, vi 20); (cell 1, vi 10) ];
  }

let test_graph_rw_cycle () =
  let h = write_skew_history in
  match History.check_graph h with
  | Some (History.Cycle edges) ->
      Alcotest.(check bool) "cycle has >= 2 edges" true (List.length edges >= 2)
  | other ->
      Alcotest.failf "expected rw cycle, got %a"
        Fmt.(option History.pp_anomaly)
        other

let test_graph_wr_cycle () =
  (* Each transaction reads the other's write: wr edges both ways. *)
  let h =
    {
      History.init = [ (cell 0, vi 0); (cell 1, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0
            ~reads:[ (cell 1, vi 21) ]
            ~writes:[ (cell 0, vi 10) ]
            ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 10) ]
            ~writes:[ (cell 1, vi 21) ]
            ();
        ];
      final = [ (cell 0, vi 10); (cell 1, vi 21) ];
    }
  in
  check_anomaly "wr cycle rejected" true
    (match History.check_graph h with Some (History.Cycle _) -> true | _ -> false)

let test_graph_lost_update () =
  (* Both transactions read the initial value and write: ww orders them
     but the later one's read points back - the classic lost update. *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0
            ~reads:[ (cell 0, vi 0) ]
            ~writes:[ (cell 0, vi 10) ]
            ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 0) ]
            ~writes:[ (cell 0, vi 20) ]
            ();
        ];
      final = [ (cell 0, vi 20) ];
    }
  in
  check_anomaly "lost update rejected" true
    (match History.check_graph h with Some (History.Cycle _) -> true | _ -> false)

let test_graph_dirty_read () =
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [ node ~id:0 ~tid:0 ~stamp:0 ~reads:[ (cell 0, vi 999) ] ~writes:[] () ];
      final = [ (cell 0, vi 0) ];
    }
  in
  check_anomaly "dirty read detected" true
    (match History.check_graph h with
    | Some (History.Dirty_read { seen = History.Vi 999; _ }) -> true
    | _ -> false)

let test_graph_final_mismatch () =
  (* The only committed write never reached the heap (a lost
     non-transactional overwrite would look like this). *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes = [ node ~id:0 ~tid:0 ~stamp:0 ~reads:[] ~writes:[ (cell 0, vi 10) ] () ];
      final = [ (cell 0, vi 0) ];
    }
  in
  check_anomaly "final mismatch detected" true
    (match History.check_graph h with
    | Some (History.Final_mismatch _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Snapshot-isolation certifier on hand-built histories                *)
(* ------------------------------------------------------------------ *)

(* The differential replay inside [certify] only runs once the graph
   check passes; the hand-built anomalous histories never reach it, so
   an empty program is enough. *)
let dummy_prog = { Prog.ncells = 2; nslots = 0; threads = [] }

let lost_update_history =
  (* Both transactions read version 0 of c0; the second installs version
     2 - the first committer's update is silently overwritten. *)
  {
    History.init = [ (cell 0, vi 0) ];
    nodes =
      [
        node ~id:0 ~tid:0 ~stamp:0
          ~reads:[ (cell 0, vi 0) ]
          ~writes:[ (cell 0, vi 10) ]
          ();
        node ~id:1 ~tid:1 ~stamp:1
          ~reads:[ (cell 0, vi 0) ]
          ~writes:[ (cell 0, vi 20) ]
          ();
      ];
    final = [ (cell 0, vi 20) ];
  }

let long_fork_history =
  (* Two independent writers; each reader sees exactly one of the two
     writes - the forked observers agree on no single prefix, but every
     individual snapshot is causally consistent. *)
  {
    History.init = [ (cell 0, vi 0); (cell 1, vi 0) ];
    nodes =
      [
        node ~id:0 ~tid:0 ~stamp:0 ~reads:[] ~writes:[ (cell 0, vi 10) ] ();
        node ~id:1 ~tid:1 ~stamp:1
          ~reads:[ (cell 0, vi 10); (cell 1, vi 0) ]
          ~writes:[] ();
        node ~id:2 ~tid:2 ~stamp:2 ~reads:[] ~writes:[ (cell 1, vi 20) ] ();
        node ~id:3 ~tid:3 ~stamp:3
          ~reads:[ (cell 1, vi 20); (cell 0, vi 0) ]
          ~writes:[] ();
      ];
    final = [ (cell 0, vi 10); (cell 1, vi 20) ];
  }

let dirty_read_history =
  {
    History.init = [ (cell 0, vi 0) ];
    nodes =
      [ node ~id:0 ~tid:0 ~stamp:0 ~reads:[ (cell 0, vi 999) ] ~writes:[] () ];
    final = [ (cell 0, vi 0) ];
  }

let test_si_admits_write_skew () =
  check_anomaly "write skew passes SI" true
    (History.check_si_graph write_skew_history = None);
  check_anomaly "write skew fails serializability" true
    (History.check_graph write_skew_history <> None)

let test_si_admits_long_fork () =
  check_anomaly "long fork passes SI" true
    (History.check_si_graph long_fork_history = None);
  check_anomaly "long fork fails serializability" true
    (match History.check_graph long_fork_history with
    | Some (History.Cycle _) -> true
    | _ -> false)

let test_si_rejects_lost_update () =
  check_anomaly "lost update rejected under SI" true
    (match History.check_si_graph lost_update_history with
    | Some (History.Lost_update { read_idx = 0; write_idx = 2; _ }) -> true
    | _ -> false)

let test_si_rejects_dirty_read () =
  check_anomaly "dirty read rejected under SI" true
    (match History.check_si_graph dirty_read_history with
    | Some (History.Dirty_read _) -> true
    | _ -> false)

let test_si_rejects_fractured_read () =
  (* One transaction observes two committed versions of c0: no snapshot
     contains both. *)
  let h =
    {
      History.init = [ (cell 0, vi 0) ];
      nodes =
        [
          node ~id:0 ~tid:0 ~stamp:0 ~reads:[] ~writes:[ (cell 0, vi 10) ] ();
          node ~id:1 ~tid:1 ~stamp:1
            ~reads:[ (cell 0, vi 0); (cell 0, vi 10) ]
            ~writes:[] ();
        ];
      final = [ (cell 0, vi 10) ];
    }
  in
  check_anomaly "fractured read rejected under SI" true
    (match History.check_si_graph h with
    | Some (History.Fractured_read _) -> true
    | _ -> false)

let test_certify_levels () =
  (match History.certify dummy_prog write_skew_history with
  | History.Cert_snapshot_only (History.Cycle _) -> ()
  | c ->
      Alcotest.failf "write skew certified %s"
        (History.certification_to_string c));
  (match History.certify dummy_prog lost_update_history with
  | History.Cert_anomalous (History.Lost_update _) -> ()
  | c ->
      Alcotest.failf "lost update certified %s"
        (History.certification_to_string c));
  match History.certify dummy_prog dirty_read_history with
  | History.Cert_anomalous (History.Dirty_read _) -> ()
  | c ->
      Alcotest.failf "dirty read certified %s"
        (History.certification_to_string c)

(* One witness per anomaly constructor: adding a constructor without
   extending this list (and [all_anomaly_kinds]) fails the test, so the
   classifier can never silently lag the type. *)
let anomaly_witnesses =
  [
    History.Cycle [];
    History.Dirty_read { node = 0; rloc = cell 0; seen = vi 1 };
    History.Final_mismatch { floc = cell 0; expected = None; actual = None };
    History.Divergence { dloc = cell 0; replayed = None; actual = None };
    History.Control_divergence { thread = 0; step = 0; detail = "" };
    History.Private_clobbered { thread = 0; step = 0; expected = 1; seen = vi 0 };
    History.Exec_failure "boom";
    History.Lost_update { node = 0; uloc = cell 0; read_idx = 0; write_idx = 2 };
    History.Fractured_read { node = 0; floc = cell 0; first = vi 0; second = vi 1 };
  ]

let test_anomaly_kinds_exhaustive () =
  let kinds = List.map History.anomaly_kind anomaly_witnesses in
  Alcotest.(check (list string))
    "every kind witnessed, no duplicates, order stable"
    History.all_anomaly_kinds kinds;
  Alcotest.(check int)
    "kinds distinct"
    (List.length kinds)
    (List.length (List.sort_uniq compare kinds))

let test_si_forbids_partition () =
  let forbidden =
    List.filter History.si_forbids anomaly_witnesses
    |> List.map History.anomaly_kind
  in
  Alcotest.(check (list string))
    "SI forbids exactly the single-snapshot violations"
    [
      "dirty-read";
      "final-mismatch";
      "private-clobbered";
      "exec-failure";
      "lost-update";
      "fractured-read";
    ]
    forbidden

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let count_ops (p : Prog.t) =
  List.fold_left
    (fun acc steps ->
      List.fold_left
        (fun acc -> function Prog.Atomic ops -> acc + List.length ops | _ -> acc + 1)
        acc steps)
    0 p.Prog.threads

let has_box_write (p : Prog.t) =
  List.exists
    (List.exists (function
      | Prog.Atomic ops ->
          List.exists (function Prog.Box_write _ -> true | _ -> false) ops
      | Prog.Plain (Prog.Box_write _) -> true
      | _ -> false))
    p.Prog.threads

let shrink_start =
  {
    Prog.ncells = 2;
    nslots = 2;
    threads =
      [
        [
          Prog.Atomic [ Prog.Read 0; Prog.Box_write 1; Prog.Write (1, Prog.Tok_acc) ];
          Prog.Plain (Prog.Read 1);
        ];
        [ Prog.Atomic [ Prog.Write (0, Prog.Tok) ] ];
      ];
  }

let test_shrink_minimum () =
  let small = Shrink.minimize ~keep:has_box_write shrink_start in
  Alcotest.(check int) "one op left" 1 (count_ops small);
  Alcotest.(check bool) "box write survives" true (has_box_write small);
  (* With the demotion pass on, the singleton atomic collapses to a
     plain access and the slot index lowers to 0. *)
  Alcotest.(check string) "minimal program"
    (Prog.to_string
       { shrink_start with Prog.threads = [ [ Prog.Plain (Prog.Box_write 0) ] ] })
    (Prog.to_string small)

let test_shrink_no_demotion () =
  let small = Shrink.minimize ~demote_atomic:false ~keep:has_box_write shrink_start in
  Alcotest.(check string) "atomic singleton preserved"
    (Prog.to_string
       { shrink_start with Prog.threads = [ [ Prog.Atomic [ Prog.Box_write 0 ] ] ] })
    (Prog.to_string small)

let test_shrink_fixpoint () =
  let small = Shrink.minimize ~keep:has_box_write shrink_start in
  (* Fixpoint: no single candidate of the minimum still satisfies keep. *)
  Alcotest.(check bool) "no further shrink" true
    (Seq.for_all (fun q -> not (has_box_write q)) (Shrink.candidates small));
  (* Idempotence follows. *)
  Alcotest.(check string) "idempotent"
    (Prog.to_string small)
    (Prog.to_string (Shrink.minimize ~keep:has_box_write small))

let test_shrink_demotion_gate () =
  let p = { Prog.ncells = 1; nslots = 0; threads = [ [ Prog.Atomic [ Prog.Read 0 ] ] ] } in
  let plains cands =
    List.length
      (List.filter
         (fun (q : Prog.t) ->
           List.exists
             (List.exists (function Prog.Plain _ -> true | _ -> false))
             q.Prog.threads)
         (List.of_seq cands))
  in
  Alcotest.(check int) "demotion offered" 1 (plains (Shrink.candidates p));
  Alcotest.(check int) "demotion gated off" 0
    (plains (Shrink.candidates ~demote_atomic:false p))

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let profiles = [ Gen.Txn_only; Gen.Mixed; Gen.Handoff ]

let check_op g (op : Prog.op) =
  match op with
  | Prog.Read c | Prog.Write (c, _) -> c >= 0 && c < g.Gen.ncells
  | Prog.Box_read s | Prog.Box_write s -> s >= 0 && s < g.Gen.nslots

let check_step g profile (step : Prog.step) =
  match step with
  | Prog.Atomic ops ->
      List.length ops >= 1
      && List.length ops <= g.Gen.max_ops
      && List.for_all (check_op g) ops
      && (profile <> Gen.Txn_only && profile <> Gen.Mixed
         || List.for_all
              (function Prog.Box_read _ | Prog.Box_write _ -> false | _ -> true)
              ops)
  | Prog.Plain op -> profile = Gen.Mixed && check_op g op
  | Prog.Publish s | Prog.Privatize s ->
      profile = Gen.Handoff && s >= 0 && s < g.Gen.nslots

let test_gen_well_formed () =
  List.iter
    (fun profile ->
      let g = Gen.default profile in
      for seed = 1 to 20 do
        let p = Gen.generate g ~seed in
        let nt = Prog.nthreads p in
        if nt < g.Gen.min_threads || nt > g.Gen.max_threads then
          Alcotest.failf "%s seed %d: %d threads" (Gen.profile_to_string profile)
            seed nt;
        List.iter
          (fun steps ->
            if List.length steps < 1 || List.length steps > g.Gen.max_steps then
              Alcotest.failf "%s seed %d: bad step count"
                (Gen.profile_to_string profile) seed;
            List.iter
              (fun step ->
                if not (check_step g profile step) then
                  Alcotest.failf "%s seed %d: step out of profile: %s"
                    (Gen.profile_to_string profile) seed (Prog.to_string p))
              steps)
          p.Prog.threads
      done)
    profiles

let test_gen_deterministic () =
  List.iter
    (fun profile ->
      let g = Gen.default profile in
      for seed = 1 to 10 do
        let a = Gen.generate g ~seed and b = Gen.generate g ~seed in
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d" (Gen.profile_to_string profile) seed)
          (Prog.to_string a) (Prog.to_string b)
      done)
    profiles

(* ------------------------------------------------------------------ *)
(* JSON round trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_prog_json_roundtrip () =
  List.iter
    (fun profile ->
      let g = Gen.default profile in
      for seed = 1 to 10 do
        let p = Gen.generate g ~seed in
        match Prog.of_json (Prog.to_json p) with
        | Some p' ->
            Alcotest.(check string)
              (Printf.sprintf "%s seed %d" (Gen.profile_to_string profile) seed)
              (Prog.to_string p) (Prog.to_string p')
        | None -> Alcotest.failf "of_json failed: %s" (Prog.to_string p)
      done)
    profiles

let test_combo_json_roundtrip () =
  List.iter
    (fun combo ->
      match Combo.of_json (Combo.to_json combo) with
      | Some combo' -> Alcotest.(check string) "combo" (Combo.name combo) (Combo.name combo')
      | None -> Alcotest.failf "combo of_json failed: %s" (Combo.name combo))
    (Combo.all @ Combo.timestamp_grid)

let sample_repro driver =
  {
    Repro.combo =
      { Combo.versioning = Stm_core.Config.Eager;
        isolation = Stm_core.Config.Serializable;
        validation = Stm_core.Config.Incremental;
        atomicity = Combo.Weak;
        cm = Stm_cm.Policy.Suicide };
    profile = "mixed";
    prog_seed = Some 7;
    driver;
    max_steps = 10_000;
    prog =
      {
        Prog.ncells = 2;
        nslots = 0;
        threads =
          [
            [ Prog.Plain (Prog.Write (0, Prog.Tok)) ];
            [ Prog.Atomic [ Prog.Read 0; Prog.Write (1, Prog.Tok_acc) ] ];
          ];
      };
    verdict = History.verdict_to_json History.Serializable;
  }

let test_repro_json_roundtrip () =
  List.iter
    (fun driver ->
      let r = sample_repro driver in
      match Repro.of_string (Repro.to_string r) with
      | Ok r' -> Alcotest.(check string) "repro" (Repro.to_string r) (Repro.to_string r')
      | Error msg -> Alcotest.failf "repro parse failed: %s" msg)
    [ Repro.Random_sched 42; Repro.Explore { preemption_bound = 2; max_runs = 500 } ]

let test_repro_rejects_garbage () =
  (match Repro.of_string "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed syntactically invalid repro");
  match Repro.of_string "{\"format\": \"something-else\", \"version\": 1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong format tag"

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

let priv_race_prog =
  (* One thread privatizes the slot-0 box; the other transactionally
     writes the box, a cell, and reads it back. Under weak atomicity
     this is the paper's figure-1 race. *)
  {
    Prog.ncells = 1;
    nslots = 1;
    threads =
      [
        [ Prog.Privatize 0 ];
        [ Prog.Atomic [ Prog.Box_write 0; Prog.Write (0, Prog.Tok); Prog.Read 0 ] ];
      ];
  }

let combo versioning atomicity =
  {
    Combo.versioning;
    isolation = Stm_core.Config.Serializable;
    validation = Stm_core.Config.Incremental;
    atomicity;
    cm = Stm_cm.Policy.Suicide;
  }

let test_replay_deterministic () =
  List.iter
    (fun (cmb, driver) ->
      let run () =
        Repro.run_driver ~combo:cmb ~driver ~max_steps:Exec.default_fuel
          priv_race_prog
      in
      let a = run () and b = run () in
      Alcotest.(check bool)
        (Printf.sprintf "%s deterministic" (Combo.name cmb))
        true
        (History.verdict_equal a b))
    [
      (combo Stm_core.Config.Eager Combo.Weak, Repro.Random_sched 42);
      (combo Stm_core.Config.Lazy Combo.Weak, Repro.Random_sched 43);
      (combo Stm_core.Config.Eager Combo.Quiesce, Repro.Random_sched 44);
      ( combo Stm_core.Config.Eager Combo.Weak,
        Repro.Explore { preemption_bound = 2; max_runs = 200 } );
    ]

let test_repro_replay_matches () =
  (* Record a repro from a live driver run, then replay it. *)
  let cmb = combo Stm_core.Config.Eager Combo.Weak in
  let driver = Repro.Explore { preemption_bound = 2; max_runs = 500 } in
  let verdict =
    Repro.run_driver ~combo:cmb ~driver ~max_steps:Exec.default_fuel priv_race_prog
  in
  Alcotest.(check bool) "race found" true (History.is_anomalous verdict);
  let r =
    {
      Repro.combo = cmb;
      profile = "handoff";
      prog_seed = None;
      driver;
      max_steps = Exec.default_fuel;
      prog = priv_race_prog;
      verdict = History.verdict_to_json verdict;
    }
  in
  Alcotest.(check bool) "replay matches" true (Repro.matches r (Repro.replay r))

(* ------------------------------------------------------------------ *)
(* Cross-backend differential sweep (smoke slice)                      *)
(* ------------------------------------------------------------------ *)

(* A small slice of the nightly grid: the same seeded txn-only programs
   on eager, lazy, mvcc and mvcc-snapshot, certified at each combo's own
   isolation level. Any anomalous member is a cross-backend divergence
   and fails the build with a replayable repro. *)
let test_differential_smoke () =
  let budget =
    {
      Fuzz.default_budget with
      Fuzz.programs = 6;
      seeds = 2;
      base_seed = 1;
      max_steps = Exec.default_fuel;
    }
  in
  let r = Fuzz.run_differential budget in
  Alcotest.(check int)
    "grid size" 4
    (List.length r.Fuzz.diff_combos);
  Alcotest.(check int)
    "executions = programs x seeds x combos"
    (6 * 2 * 4) r.Fuzz.diff_executions;
  if not (Fuzz.differential_passed r) then
    Alcotest.failf "cross-backend divergence: %s"
      (Stm_obs.Json.to_string (Fuzz.differential_to_json r))

(* ------------------------------------------------------------------ *)
(* Quiescence / DEA privatization regression                           *)
(* ------------------------------------------------------------------ *)

(* The same program explored under the full atomicity spectrum: weak
   configurations must exhibit the privatization race; strong barriers,
   dynamic escape analysis and commit-time quiescence must not. *)

let explore_verdict cmb =
  let cfg = Combo.to_config cmb in
  let v, _ = Exec.explore ~preemption_bound:2 ~max_runs:1500 ~cfg priv_race_prog in
  v

let test_priv_race_weak () =
  List.iter
    (fun versioning ->
      match explore_verdict (combo versioning Combo.Weak) with
      | Some v when History.is_anomalous v -> ()
      | _ ->
          Alcotest.failf "%s-weak: privatization race not found"
            (Combo.versioning_to_string versioning))
    [ Stm_core.Config.Eager; Stm_core.Config.Lazy ]

let test_priv_race_safe_configs () =
  List.iter
    (fun (versioning, atomicity) ->
      match explore_verdict (combo versioning atomicity) with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s-%s: unexpected %s"
            (Combo.versioning_to_string versioning)
            (Combo.atomicity_to_string atomicity)
            (Stm_obs.Json.to_string (History.verdict_to_json v)))
    [
      (Stm_core.Config.Eager, Combo.Strong);
      (Stm_core.Config.Lazy, Combo.Strong);
      (Stm_core.Config.Eager, Combo.Strong_dea);
      (Stm_core.Config.Eager, Combo.Quiesce);
      (Stm_core.Config.Lazy, Combo.Quiesce);
    ]

let test_publish_safe_configs () =
  (* Publication handoff: T0 publishes a freshly initialized box while
     T1 transactionally reads through the slot. Safe under the same
     configurations as privatization. *)
  let pub_prog =
    {
      Prog.ncells = 1;
      nslots = 1;
      threads =
        [
          [ Prog.Publish 0 ];
          [ Prog.Atomic [ Prog.Box_read 0; Prog.Write (0, Prog.Tok_acc) ] ];
        ];
    }
  in
  List.iter
    (fun (versioning, atomicity) ->
      let cfg = Combo.to_config (combo versioning atomicity) in
      let v, _ = Exec.explore ~preemption_bound:2 ~max_runs:1500 ~cfg pub_prog in
      match v with
      | None -> ()
      | Some v ->
          Alcotest.failf "publish %s-%s: unexpected %s"
            (Combo.versioning_to_string versioning)
            (Combo.atomicity_to_string atomicity)
            (Stm_obs.Json.to_string (History.verdict_to_json v)))
    [
      (Stm_core.Config.Eager, Combo.Strong);
      (Stm_core.Config.Eager, Combo.Strong_dea);
      (Stm_core.Config.Eager, Combo.Quiesce);
      (Stm_core.Config.Lazy, Combo.Quiesce);
    ]

(* ------------------------------------------------------------------ *)
(* Oracle equivalence                                                  *)
(* ------------------------------------------------------------------ *)

(* The table-based oracle the array-based one replaced, kept verbatim as
   the reference: the same verdicts, down to which cycle or mismatch is
   reported, must come out of both on real and mutated histories. *)
module Old_oracle = struct
  open History

  exception Found of anomaly

  (* Version order per location: committed writes sorted by stamp, preceded
     by the initial value when the location has one. Writer id -1 stands
     for "initial state". Also returns the (loc, value) -> version-index
     map; values are unique per location because tokens are unique per
     static occurrence and each occurrence commits at most once. *)
  let build_versions (h : history) nodes =
    let writes_by_loc : (loc, (int * int * value) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    Array.iter
      (fun nd ->
        List.iter
          (fun (l, v) ->
            let r =
              match Hashtbl.find_opt writes_by_loc l with
              | Some r -> r
              | None ->
                  let r = ref [] in
                  Hashtbl.add writes_by_loc l r;
                  r
            in
            r := (nd.stamp, nd.id, v) :: !r)
          nd.writes)
      nodes;
    let versions : (loc, (int * value) array) Hashtbl.t = Hashtbl.create 64 in
    let add_versions l ws =
      let ws = List.sort (fun (s1, _, _) (s2, _, _) -> compare s1 s2) ws in
      let ws = List.map (fun (_, id, v) -> (id, v)) ws in
      let ws =
        match List.assoc_opt l h.init with
        | Some iv -> (-1, iv) :: ws
        | None -> ws
      in
      Hashtbl.replace versions l (Array.of_list ws)
    in
    Hashtbl.iter (fun l r -> add_versions l !r) writes_by_loc;
    List.iter
      (fun (l, _) ->
        if not (Hashtbl.mem versions l) then add_versions l [])
      h.init;
    let vindex : (loc * value, int) Hashtbl.t = Hashtbl.create 64 in
    Hashtbl.iter
      (fun l vs -> Array.iteri (fun i (_, v) -> Hashtbl.replace vindex (l, v) i) vs)
      versions;
    (versions, vindex)

  (* Final state: every snapshotted location must hold its last committed
     version (shared by the serializable and snapshot-isolation checks).
     Raises [Found]. *)
  let check_final (h : history) versions =
    Hashtbl.iter
      (fun l vs ->
        match List.assoc_opt l h.final with
        | None -> ()  (* location not snapshotted; nothing to check *)
        | Some actual ->
            let expected = snd vs.(Array.length vs - 1) in
            if actual <> expected then
              raise
                (Found
                   (Final_mismatch
                      { floc = l; expected = Some expected; actual = Some actual })))
      versions

  let check_graph (h : history) : anomaly option =
    let nodes = Array.of_list h.nodes in
    let n = Array.length nodes in
    Array.iteri (fun i nd -> assert (nd.id = i)) nodes;
    let versions, vindex = build_versions h nodes in
    let edges = ref [] in
    let adj = Array.make n [] in
    let add_edge src dst kind eloc =
      if src <> dst && src >= 0 && dst >= 0 then begin
        let e = { src; dst; kind; eloc } in
        edges := e :: !edges;
        adj.(src) <- e :: adj.(src)
      end
    in
    try
      (* ww: consecutive committed versions. *)
      Hashtbl.iter
        (fun l vs ->
          for i = 0 to Array.length vs - 2 do
            add_edge (fst vs.(i)) (fst vs.(i + 1)) Ww (Some l)
          done)
        versions;
      (* wr and rw from each observed read. *)
      Array.iter
        (fun nd ->
          List.iter
            (fun (l, v) ->
              match Hashtbl.find_opt vindex (l, v) with
              | None -> raise (Found (Dirty_read { node = nd.id; rloc = l; seen = v }))
              | Some i ->
                  let vs = Hashtbl.find versions l in
                  let writer = fst vs.(i) in
                  add_edge writer nd.id Wr (Some l);
                  if i + 1 < Array.length vs then
                    add_edge nd.id (fst vs.(i + 1)) Rw (Some l))
            nd.reads)
        nodes;
      (* Program order within each logical thread. *)
      let last_of_tid : (int, int) Hashtbl.t = Hashtbl.create 8 in
      Array.iter
        (fun nd ->
          (match Hashtbl.find_opt last_of_tid nd.tid with
          | Some prev -> add_edge prev nd.id Po None
          | None -> ());
          Hashtbl.replace last_of_tid nd.tid nd.id)
        nodes;
      check_final h versions;
      (* Acyclicity. Colors: 0 white, 1 gray, 2 black. *)
      let color = Array.make n 0 in
      let rec dfs path v =
        color.(v) <- 1;
        List.iter
          (fun e ->
            if color.(e.dst) = 1 then begin
              (* Back edge: the cycle is [e] plus the path suffix from
                 e.dst back to v. *)
              let rec suffix acc = function
                | [] -> acc
                | e' :: rest ->
                    if e'.src = e.dst then e' :: acc else suffix (e' :: acc) rest
              in
              raise (Found (Cycle (suffix [ e ] path)))
            end
            else if color.(e.dst) = 0 then dfs (e :: path) e.dst)
          adj.(v);
        color.(v) <- 2
      in
      for v = 0 to n - 1 do
        if color.(v) = 0 then dfs [] v
      done;
      None
    with Found a -> Some a

  (* ------------------------------------------------------------------ *)
  (* Differential replay                                                 *)
  (* ------------------------------------------------------------------ *)

  (* Replays the committed nodes in serialization order against a
     sequential reference interpreter of the program, then diffs the
     reference heap against the observed final state. Catches divergences
     the per-location graph check cannot see (e.g. wrong data payloads
     flowing through accumulators). *)

  let differential (prog : Prog.t) (h : history) : anomaly option =
    let heap : (loc, value) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun (l, v) -> Hashtbl.replace heap l v) h.init;
    let nthreads = Prog.nthreads prog in
    let accs = Array.make (max 1 nthreads) 0 in
    let priv = Array.make (max 1 nthreads) None in
    let as_int = function Vi n -> n | Vr _ -> 0 in
    let load l = Option.value (Hashtbl.find_opt heap l) ~default:(Vi 0) in
    let exception Diverged of anomaly in
    let apply_op thread step idx op =
      match (op : Prog.op) with
      | Prog.Read c -> accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Cell c)))
      | Prog.Write (c, e) ->
          let token = Prog.op_token ~thread ~step ~op:idx in
          Hashtbl.replace heap (Cell c)
            (Vi (Prog.value_of e ~token ~acc:accs.(thread)))
      | Prog.Box_read s -> (
          match load (Root s) with
          | Vr b -> accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Box_field b)))
          | _ -> ())
      | Prog.Box_write s -> (
          match load (Root s) with
          | Vr b ->
              let token = Prog.op_token ~thread ~step ~op:idx in
              Hashtbl.replace heap (Box_field b)
                (Vi (Prog.value_of Prog.Tok_acc ~token ~acc:accs.(thread)))
          | _ -> ())
    in
    let step_of thread step =
      match List.nth_opt prog.Prog.threads thread with
      | None -> None
      | Some steps -> List.nth_opt steps step
    in
    let replay_node (nd : node) =
      match nd.tag with
      | None -> ()
      | Some { thread; step; part } -> (
          match (part, step_of thread step) with
          | Body, Some (Prog.Atomic ops) -> List.iteri (apply_op thread step) ops
          | Body, Some (Prog.Plain op) -> apply_op thread step 0 op
          | Body, Some (Prog.Publish s) ->
              Hashtbl.replace heap (Root s) (Vr (New_box { thread; step }))
          | Pub_init, Some (Prog.Publish _) ->
              Hashtbl.replace heap
                (Box_field (New_box { thread; step }))
                (Vi (Prog.pub_token ~thread ~step * Prog.token_scale))
          | Body, Some (Prog.Privatize s) -> (
              match load (Root s) with
              | Vr b ->
                  Hashtbl.replace heap (Root s)
                    (Vi (Prog.tomb_token ~thread ~step * Prog.token_scale));
                  priv.(thread) <- Some b
              | _ -> priv.(thread) <- None)
          | Priv_write, Some (Prog.Privatize _) -> (
              match priv.(thread) with
              | Some b ->
                  Hashtbl.replace heap (Box_field b)
                    (Vi (Prog.priv_token ~thread ~step * Prog.token_scale))
              | None ->
                  raise
                    (Diverged
                       (Control_divergence
                          {
                            thread;
                            step;
                            detail =
                              "execution privatized a box but the sequential replay \
                               found the slot already detached";
                          })))
          | Priv_read, Some (Prog.Privatize _) -> (
              match priv.(thread) with
              | Some b ->
                  accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Box_field b)))
              | None -> ())
          | _, None ->
              raise
                (Diverged
                   (Control_divergence
                      { thread; step; detail = "node refers to a step outside the program" }))
          | _, Some _ ->
              raise
                (Diverged
                   (Control_divergence
                      { thread; step; detail = "node part does not match the step kind" })))
    in
    try
      List.iter replay_node h.nodes;
      List.iter
        (fun (l, actual) ->
          let replayed = Hashtbl.find_opt heap l in
          let same =
            match replayed with Some r -> r = actual | None -> actual = Vi 0
          in
          if not same then
            raise (Diverged (Divergence { dloc = l; replayed; actual = Some actual })))
        h.final;
      None
    with Diverged a -> Some a

  (* ------------------------------------------------------------------ *)
  (* Combined verdict                                                    *)
  (* ------------------------------------------------------------------ *)

  let check prog h =
    match check_graph h with
    | Some a -> Anomalous a
    | None -> (
        match differential prog h with Some a -> Anomalous a | None -> Serializable)

  (* ------------------------------------------------------------------ *)
  (* Snapshot-isolation certification                                    *)
  (* ------------------------------------------------------------------ *)

  (* Certify the weaker contract: dirty reads, fractured reads, lost
     updates, and final-state mismatches are rejected; dependency cycles
     are not checked (write skew and long fork are admitted), and there is
     no sequential differential replay (an SI execution need not have
     one). Reads already exclude a node's own-write observations (see
     Exec.split_accs), so every recorded read names a foreign version. *)
  let check_si_graph (h : history) : anomaly option =
    let nodes = Array.of_list h.nodes in
    Array.iteri (fun i nd -> assert (nd.id = i)) nodes;
    let versions, vindex = build_versions h nodes in
    try
      Array.iter
        (fun nd ->
          let seen : (loc, value) Hashtbl.t = Hashtbl.create 4 in
          List.iter
            (fun (l, v) ->
              if not (Hashtbl.mem vindex (l, v)) then
                raise (Found (Dirty_read { node = nd.id; rloc = l; seen = v }));
              match Hashtbl.find_opt seen l with
              | Some v0 when v0 <> v ->
                  raise
                    (Found
                       (Fractured_read
                          { node = nd.id; floc = l; first = v0; second = v }))
              | Some _ -> ()
              | None -> Hashtbl.add seen l v)
            nd.reads;
          (* first-committer-wins certificate: a read-modify-write must
             install the version directly after the one it read *)
          List.iter
            (fun (l, wv) ->
              match (Hashtbl.find_opt seen l, Hashtbl.find_opt vindex (l, wv)) with
              | Some rv, Some j -> (
                  match Hashtbl.find_opt vindex (l, rv) with
                  | Some i when j <> i + 1 ->
                      raise
                        (Found
                           (Lost_update
                              { node = nd.id; uloc = l; read_idx = i; write_idx = j }))
                  | Some _ | None -> ())
              | _ -> ())
            nd.writes)
        nodes;
      check_final h versions;
      None
    with Found a -> Some a

  let check_si h =
    match check_si_graph h with Some a -> Anomalous a | None -> Serializable

  let certify prog h =
    match check prog h with
    | Serializable | Inconclusive _ -> Cert_serializable
    | Anomalous a -> (
        match check_si_graph h with
        | None -> Cert_snapshot_only a
        | Some si_a -> Cert_anomalous si_a)
end

let certification_json = function
  | History.Cert_serializable -> "serializable"
  | History.Cert_snapshot_only a ->
      "snapshot-only " ^ Stm_obs.Json.to_string (History.anomaly_to_json a)
  | History.Cert_anomalous a ->
      "anomalous " ^ Stm_obs.Json.to_string (History.anomaly_to_json a)

let verdict_json v = Stm_obs.Json.to_string (History.verdict_to_json v)

(* A real fuzz history: any profile on any combo (weak ones included, so
   genuine anomalies turn up), at a random schedule. *)
let real_history ~prog_seed ~sched_seed ~combo_idx ~profile_idx =
  let combos = Array.of_list Combo.all in
  let profiles = [| Gen.Txn_only; Gen.Mixed; Gen.Handoff |] in
  let prog =
    Gen.generate (Gen.default profiles.(profile_idx mod 3)) ~seed:prog_seed
  in
  let cmb = combos.(combo_idx mod Array.length combos) in
  let cfg = Combo.to_config ~cm_seed:sched_seed cmb in
  match
    snd
      (Exec.run ~policy:(Stm_runtime.Sched.Random sched_seed)
         ~max_steps:Exec.default_fuel ~cfg prog)
  with
  | Some h -> Some (prog, h)
  | None -> None

let renumber nodes = List.mapi (fun i (n : History.node) -> { n with History.id = i }) nodes

let pick_nth l k = List.nth l (k mod List.length l)

(* Every value the history wrote to, or started [l] with. *)
let values_at (h : History.history) l =
  List.filter_map (fun (l', v) -> if l' = l then Some v else None) h.History.init
  @ List.concat_map
      (fun (n : History.node) ->
        List.filter_map (fun (l', v) -> if l' = l then Some v else None) n.History.writes)
      h.History.nodes

type mutation = Unchanged | Drop_node | Swap_stamps | Retarget_read | Change_final

let mutation_name = function
  | Unchanged -> "unchanged"
  | Drop_node -> "drop-node"
  | Swap_stamps -> "swap-stamps"
  | Retarget_read -> "retarget-read"
  | Change_final -> "change-final"

let mutate m (a, b) (h : History.history) =
  let nodes = h.History.nodes in
  match m with
  | Unchanged -> h
  | _ when nodes = [] -> h
  | Drop_node ->
      let k = a mod List.length nodes in
      { h with History.nodes = renumber (List.filteri (fun i _ -> i <> k) nodes) }
  | Swap_stamps ->
      let n = List.length nodes in
      let i = a mod n and j = b mod n in
      let si = (List.nth nodes i).History.stamp and sj = (List.nth nodes j).History.stamp in
      {
        h with
        History.nodes =
          List.mapi
            (fun k (nd : History.node) ->
              if k = i then { nd with History.stamp = sj }
              else if k = j then { nd with History.stamp = si }
              else nd)
            nodes;
      }
  | Retarget_read -> (
      let readers = List.filter (fun (n : History.node) -> n.History.reads <> []) nodes in
      match readers with
      | [] -> h
      | _ ->
          let victim = pick_nth readers a in
          let r = b mod List.length victim.History.reads in
          let l, _ = List.nth victim.History.reads r in
          (* another version of the same location, or (odd b) a value of
             a different location *)
          let candidates =
            if b land 1 = 0 then values_at h l
            else List.concat_map (fun (l', _) -> values_at h l') h.History.init
          in
          let v' = if candidates = [] then History.Vi 1 else pick_nth candidates (b / 2) in
          {
            h with
            History.nodes =
              List.map
                (fun (nd : History.node) ->
                  if nd.History.id <> victim.History.id then nd
                  else
                    {
                      nd with
                      History.reads =
                        List.mapi (fun k (l, v) -> if k = r then (l, v') else (l, v)) nd.History.reads;
                    })
                nodes;
          })
  | Change_final -> (
      match h.History.final with
      | [] -> h
      | final ->
          let k = a mod List.length final in
          let l, _ = List.nth final k in
          let candidates = values_at h l in
          let v' =
            if candidates = [] || b land 3 = 0 then History.Vi (b + 1)
            else pick_nth candidates b
          in
          {
            h with
            History.final = List.mapi (fun i (l, v) -> if i = k then (l, v') else (l, v)) final;
          })

let oracle_hits : (string, int) Hashtbl.t = Hashtbl.create 16

let note_hit v =
  let k =
    match v with
    | History.Anomalous a -> History.anomaly_kind a
    | History.Serializable -> "serializable"
    | History.Inconclusive _ -> "inconclusive"
  in
  Hashtbl.replace oracle_hits k (1 + Option.value (Hashtbl.find_opt oracle_hits k) ~default:0)

let oracle_equivalence =
  let mutations = [| Unchanged; Drop_node; Swap_stamps; Retarget_read; Change_final |] in
  let gen =
    QCheck.Gen.(
      map
        (fun ((prog_seed, sched_seed, combo_idx), (profile_idx, m, a, b)) ->
          (prog_seed, sched_seed, combo_idx, profile_idx, mutations.(m), (a, b)))
        (pair
           (triple (int_range 1 10_000) (int_range 0 1_000_000) (int_range 0 1_000))
           (quad (int_range 0 2) (int_range 0 4) (int_range 0 1_000) (int_range 0 1_000))))
  in
  let print (p, s, c, pr, m, (a, b)) =
    Printf.sprintf "prog %d sched %d combo %d profile %d %s (%d, %d)" p s c pr
      (mutation_name m) a b
  in
  QCheck.Test.make ~name:"array oracle = table oracle (check, check_si, certify)"
    ~count:1500 (QCheck.make ~print gen)
    (fun (prog_seed, sched_seed, combo_idx, profile_idx, m, ab) ->
      match real_history ~prog_seed ~sched_seed ~combo_idx ~profile_idx with
      | None -> true
      | Some (prog, h) ->
          let h = mutate m ab h in
          let old_v = Old_oracle.check prog h in
          note_hit old_v;
          (match Old_oracle.check_si h with
          | History.Anomalous a -> note_hit (History.Anomalous a)
          | _ -> ());
          verdict_json (History.check prog h) = verdict_json old_v
          && verdict_json (History.check_si h) = verdict_json (Old_oracle.check_si h)
          && certification_json (History.certify prog h)
             = certification_json (Old_oracle.certify prog h))

let test_oracle_equivalence () =
  Hashtbl.reset oracle_hits;
  QCheck_alcotest.to_alcotest oracle_equivalence |> fun (_, _, f) -> f ();
  let hits = List.sort compare (List.of_seq (Hashtbl.to_seq oracle_hits)) in
  Printf.printf "verdicts per kind: %s\n"
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) hits));
  List.iter
    (fun k ->
      if not (Hashtbl.mem oracle_hits k) then
        Alcotest.failf "no case produced a %s verdict: the property is vacuous there" k)
    [ "serializable"; "cycle"; "dirty-read"; "final-mismatch"; "lost-update" ]

(* ------------------------------------------------------------------ *)
(* Fixed-seed fuzz golden                                              *)
(* ------------------------------------------------------------------ *)

(* Exact fuzz execution, pinned. Every execution of the first three
   programs x three schedule seeds of each expect-clean campaign (the
   seeds [Fuzz.run_campaign] derives), and each hunt campaign's first
   witness, as one JSON line: the verdict and an MD5 digest of the
   printed history (random driver), or the verdict and the digest of the
   outcome table of the witnessing DPOR walk. A changed schedule, a
   changed collected history or a changed verdict all change a line.
   The file was recorded before the scheduler's [Random] yield fast
   path, the table-free collector and the array-based oracle existed;
   on a mismatch the actual lines are written next to the test binary
   as [fuzz_golden.actual] for diffing. *)

let golden_path = "data/fuzz_golden.jsonl"

let md5 s = Digest.to_hex (Digest.string s)

let history_digest h = md5 (Format.asprintf "%a" History.pp_history h)

let golden_budget = Fuzz.default_budget

let golden_random_line ~key c ~prog_seed ~sched_seed prog =
  let b = golden_budget in
  let cfg = Combo.to_config ~cm_seed:sched_seed c.Fuzz.combo in
  let v, h =
    Exec.run ~policy:(Stm_runtime.Sched.Random sched_seed) ~max_steps:b.Fuzz.max_steps
      ~cfg prog
  in
  ( v,
    Stm_obs.Json.(
      to_string
        (Obj
           [
             (key, Str (Fuzz.campaign_name c));
             ("prog", Int prog_seed);
             ("sched", Int sched_seed);
             ("verdict", History.verdict_to_json v);
             ( "history",
               match h with None -> Null | Some h -> Str (history_digest h) );
           ])) )

let golden_clean c =
  let b = golden_budget in
  let gcfg = Gen.default c.Fuzz.profile in
  List.concat_map
    (fun p ->
      let prog_seed = b.Fuzz.base_seed + p in
      let prog = Gen.generate gcfg ~seed:prog_seed in
      List.init 3 (fun s ->
          snd
            (golden_random_line ~key:"campaign" c ~prog_seed
               ~sched_seed:((prog_seed * 8191) + s)
               prog)))
    [ 0; 1; 2 ]

let golden_hunt c =
  let b = golden_budget in
  let gcfg = Gen.default c.Fuzz.profile in
  let rec go p =
    if p >= b.Fuzz.programs then
      Printf.sprintf {|{"hunt":"%s","witness":null}|} (Fuzz.campaign_name c)
    else
      let prog_seed = b.Fuzz.base_seed + p in
      let prog = Gen.generate gcfg ~seed:prog_seed in
      match c.Fuzz.driver with
      | None | Some Fuzz.Drv_random ->
          let rec seeds s =
            if s >= b.Fuzz.seeds then go (p + 1)
            else
              let v, line =
                golden_random_line ~key:"hunt" c ~prog_seed
                  ~sched_seed:((prog_seed * 8191) + s)
                  prog
              in
              if History.is_anomalous v then line else seeds (s + 1)
          in
          seeds 0
      | Some Fuzz.Drv_explore -> Alcotest.fail "no hunt uses the enumerative driver"
      | Some Fuzz.Drv_dpor -> (
          let cfg = Combo.to_config c.Fuzz.combo in
          match
            Exec.explore_dpor ~preemption_bound:b.Fuzz.preemption_bound
              ~max_runs:b.Fuzz.max_runs ~max_steps:b.Fuzz.max_steps ~cfg prog
          with
          | Some v, d ->
              let e = d.Stm_litmus.Explorer.exploration in
              Stm_obs.Json.(
                to_string
                  (Obj
                     [
                       ("hunt", Str (Fuzz.campaign_name c));
                       ("prog", Int prog_seed);
                       ("verdict", History.verdict_to_json v);
                       ("runs", Int e.Stm_litmus.Explorer.runs);
                       ("races", Int d.Stm_litmus.Explorer.races);
                       ( "outcomes",
                         Str
                           (md5
                              (String.concat "\n"
                                 (List.map
                                    (fun (o, n) -> Printf.sprintf "%d %s" n o)
                                    e.Stm_litmus.Explorer.outcomes))) );
                     ]))
          | None, _ -> go (p + 1))
  in
  go 0

let golden_lines () =
  List.concat_map golden_clean Fuzz.clean_campaigns
  @ List.map golden_hunt Fuzz.hunt_campaigns

let test_fuzz_golden () =
  let expected = In_channel.with_open_text golden_path In_channel.input_all in
  let actual = String.concat "" (List.map (fun l -> l ^ "\n") (golden_lines ())) in
  if actual <> expected then begin
    Out_channel.with_open_text "fuzz_golden.actual" (fun oc ->
        output_string oc actual);
    let el = String.split_on_char '\n' expected
    and al = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ -> if e = a then first_diff (i + 1) (es, as_) else (i, e, a)
      | e :: _, [] -> (i, e, "<missing>")
      | [], a :: _ -> (i, "<missing>", a)
      | [], [] -> (i, "", "")
    in
    let i, e, a = first_diff 1 (el, al) in
    Alcotest.failf "fuzz golden differs at line %d:\nexpected %s\nactual   %s" i e a
  end

let suite =
  [
    ( "check-oracle",
      [
        Alcotest.test_case "wr chain serializable" `Quick test_graph_serializable;
        Alcotest.test_case "rw cycle (write skew)" `Quick test_graph_rw_cycle;
        Alcotest.test_case "wr cycle" `Quick test_graph_wr_cycle;
        Alcotest.test_case "lost update" `Quick test_graph_lost_update;
        Alcotest.test_case "dirty read" `Quick test_graph_dirty_read;
        Alcotest.test_case "final mismatch" `Quick test_graph_final_mismatch;
      ] );
    ( "check-si",
      [
        Alcotest.test_case "admits write skew" `Quick test_si_admits_write_skew;
        Alcotest.test_case "admits long fork" `Quick test_si_admits_long_fork;
        Alcotest.test_case "rejects lost update" `Quick test_si_rejects_lost_update;
        Alcotest.test_case "rejects dirty read" `Quick test_si_rejects_dirty_read;
        Alcotest.test_case "rejects fractured read" `Quick
          test_si_rejects_fractured_read;
        Alcotest.test_case "certify classifies levels" `Quick test_certify_levels;
        Alcotest.test_case "anomaly kinds exhaustive" `Quick
          test_anomaly_kinds_exhaustive;
        Alcotest.test_case "si_forbids partition" `Quick test_si_forbids_partition;
      ] );
    ( "check-differential",
      [
        Alcotest.test_case "cross-backend smoke slice" `Quick
          test_differential_smoke;
      ] );
    ( "check-shrink",
      [
        Alcotest.test_case "reaches minimum" `Quick test_shrink_minimum;
        Alcotest.test_case "no demotion variant" `Quick test_shrink_no_demotion;
        Alcotest.test_case "fixpoint" `Quick test_shrink_fixpoint;
        Alcotest.test_case "demotion gate" `Quick test_shrink_demotion_gate;
      ] );
    ( "check-gen",
      [
        Alcotest.test_case "well-formed" `Quick test_gen_well_formed;
        Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
      ] );
    ( "check-json",
      [
        Alcotest.test_case "prog round trip" `Quick test_prog_json_roundtrip;
        Alcotest.test_case "combo round trip" `Quick test_combo_json_roundtrip;
        Alcotest.test_case "repro round trip" `Quick test_repro_json_roundtrip;
        Alcotest.test_case "repro rejects garbage" `Quick test_repro_rejects_garbage;
      ] );
    ( "check-replay",
      [
        Alcotest.test_case "drivers deterministic" `Quick test_replay_deterministic;
        Alcotest.test_case "recorded repro replays" `Quick test_repro_replay_matches;
      ] );
    ( "check-privatization",
      [
        Alcotest.test_case "weak exhibits race" `Quick test_priv_race_weak;
        Alcotest.test_case "strong/dea/quiesce clean" `Quick test_priv_race_safe_configs;
        Alcotest.test_case "publish clean" `Quick test_publish_safe_configs;
      ] );
    ( "check-oracle-equivalence",
      [ Alcotest.test_case "array oracle = table oracle" `Quick test_oracle_equivalence ] );
    ( "check-golden",
      [ Alcotest.test_case "fixed-seed fuzz executions" `Quick test_fuzz_golden ] );
  ]
