(* The four workloads. Each set-up builds an array of units; a unit is
   one call into a library's public entry point (one [Interp.run], one
   certified litmus cell, one fuzz campaign). Running a unit returns the
   outputs that are checked against the recorded reference, plus the
   counters the traced run aggregates into per-layer metrics. *)

open Stm_core
open Stm_workloads

type obs = {
  checked : string;  (** compared with the reference line of the unit *)
  counters : (string * int) list;
      (** summed over a pass; must be equal in the traced and untraced
          runs *)
}

type unit_ = {
  uid : string;  (** reference key *)
  group : string;  (** figure the unit belongs to (IR workloads) *)
  run : unit -> obs;  (** the untraced call *)
  traced : unit -> obs;  (** the same work, with a span per library call *)
}

type t = { name : string; setup : seed:int -> unit_ array }

(* ------------------------------------------------------------------ *)
(* IR workloads: Figures 15-17 and 18-20                               *)
(* ------------------------------------------------------------------ *)

(* The figure harness's preparation, one library call per span: Jt
   compile, then the JIT or the whole-program passes. *)
let prepare (w : Workload.t) ~jit ~whole =
  let prog = Span.with_ "jtlang.compile" (fun () -> Workload.program w) in
  if whole then begin
    Span.with_ "jit.optimize" (fun () ->
        ignore (Stm_jit.Opt.optimize Stm_jit.Opt.O1 prog : Stm_jit.Opt.report));
    Span.with_ "analysis.wholeprog" (fun () ->
        let pta = Stm_analysis.Pta.analyze prog in
        ignore (Stm_analysis.Nait.apply prog pta : int);
        ignore (Stm_analysis.Thread_local.apply prog pta : int));
    if jit = Stm_jit.Opt.O2 then
      Span.with_ "jit.optimize" (fun () ->
          ignore (Stm_jit.Aggregate.run prog : int))
  end
  else
    Span.with_ "jit.optimize" (fun () ->
        ignore (Stm_jit.Opt.optimize jit prog : Stm_jit.Opt.report));
  prog

let ir_obs (o : Stm_ir.Interp.outcome) =
  let r = o.Stm_ir.Interp.result in
  (match r.Stm_runtime.Sched.exns with
  | [] -> ()
  | (tid, e) :: _ ->
      Printf.ksprintf failwith "thread %d raised %s" tid (Printexc.to_string e));
  (match r.Stm_runtime.Sched.status with
  | Stm_runtime.Sched.Completed -> ()
  | Stm_runtime.Sched.Deadlock _ -> failwith "deadlock"
  | Stm_runtime.Sched.Fuel_exhausted -> failwith "out of scheduler fuel");
  let s = o.Stm_ir.Interp.stats in
  let checked =
    Printf.sprintf "makespan=%d instrs=%d switches=%d %s prints=%s"
      r.Stm_runtime.Sched.makespan o.Stm_ir.Interp.instrs
      r.Stm_runtime.Sched.switches
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Stats.to_assoc s)))
      (Digest.to_hex (Digest.string (String.concat "\n" o.Stm_ir.Interp.prints)))
  in
  {
    checked;
    counters =
      [
        ("schedules", 1);
        ("ir.instrs", o.Stm_ir.Interp.instrs);
        ("runtime.sched.switches", r.Stm_runtime.Sched.switches);
        ("sim.cycles", r.Stm_runtime.Sched.makespan);
        ("core.barrier.reads", s.Stats.barrier_reads);
        ("core.barrier.writes", s.Stats.barrier_writes);
        ("core.barrier.private_hits", s.Stats.barrier_private_hits);
        ("core.barrier.atomic_ops", s.Stats.atomic_ops);
        ("core.txn.commits", s.Stats.commits);
        ("core.txn.aborts", s.Stats.aborts);
        ("core.txn.reads", s.Stats.txn_reads);
        ("core.txn.writes", s.Stats.txn_writes);
        ("core.txn.validations", s.Stats.validations);
        ("cm.conflicts", s.Stats.conflicts);
        ("cm.wounds", s.Stats.wounds);
        ("cm.backoff_cycles", s.Stats.backoff_cycles);
      ];
  }

let ir_unit ~uid ~group ~cfg ~params prog =
  let call () = ir_obs (Stm_ir.Interp.run ~cfg ~params prog) in
  { uid; group; run = call; traced = (fun () -> Span.with_ "ir.run" call) }

(* Figures 15-17: each JVM98-like kernel on the weak baseline and at the
   five optimisation levels, under read+write, read-only and write-only
   isolation barriers. *)
let overhead_levels =
  Stm_jit.Opt.
    [
      ("NoOpts", O0, false, false);
      ("+BarrierElim", O1, false, false);
      ("+BarrierAggr", O2, false, false);
      ("+DEA", O2, true, false);
      ("+NAIT", O2, true, true);
    ]

let jvm98_units ~seed:_ =
  List.concat_map
    (fun (fig, reads, writes) ->
      List.concat_map
        (fun (w : Workload.t) ->
          let params = w.Workload.params in
          let weak =
            ir_unit
              ~uid:(Printf.sprintf "%s/%s/weak" fig w.Workload.name)
              ~group:fig ~cfg:Config.eager_weak ~params
              (prepare w ~jit:Stm_jit.Opt.O0 ~whole:false)
          in
          weak
          :: List.map
               (fun (label, jit, dea, whole) ->
                 let cfg =
                   {
                     Config.eager_strong with
                     Config.strong = true;
                     strong_reads = reads;
                     strong_writes = writes;
                   }
                 in
                 let cfg = if dea then Config.with_dea cfg else cfg in
                 ir_unit
                   ~uid:(Printf.sprintf "%s/%s/%s" fig w.Workload.name label)
                   ~group:fig ~cfg ~params (prepare w ~jit ~whole))
               overhead_levels)
        Jvm98.all)
    [ ("fig15", true, true); ("fig16", true, false); ("fig17", false, true) ]
  |> Array.of_list

(* Figures 18-20: Tsp, OO7 and JBB in the six configurations at 1-16
   simulated processors; one prepared program per configuration, shared
   by its thread counts as in the figure harness. *)
let scaling_confs =
  Config.
    [
      ("Synch", true, eager_weak, Stm_jit.Opt.O0, false);
      ("WeakAtom", false, eager_weak, Stm_jit.Opt.O0, false);
      ("StrongNoOpts", false, eager_strong, Stm_jit.Opt.O0, false);
      ("+JitOpts", false, eager_strong, Stm_jit.Opt.O2, false);
      ("+DEA", false, with_dea eager_strong, Stm_jit.Opt.O2, false);
      ("+WholeProg", false, with_dea eager_strong, Stm_jit.Opt.O2, true);
    ]

let txn_units ~seed:_ =
  List.concat_map
    (fun (fig, (w : Workload.t)) ->
      List.concat_map
        (fun (label, locks, cfg, jit, whole) ->
          let prog = prepare w ~jit ~whole in
          List.map
            (fun nt ->
              let params =
                [ ("threads", nt); ("use_locks", if locks then 1 else 0) ]
                @ w.Workload.params
              in
              ir_unit
                ~uid:(Printf.sprintf "%s/%s/%s/t%d" fig w.Workload.name label nt)
                ~group:fig ~cfg ~params prog)
            [ 1; 2; 4; 8; 16 ])
        scaling_confs)
    [ ("fig18", Tsp.tsp); ("fig19", Oo7.oo7); ("fig20", Jbb.jbb) ]
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* DPOR certification of the litmus matrix                            *)
(* ------------------------------------------------------------------ *)

let max_runs = 40_000 (* [Matrix.certify_cell]'s default *)

let yn b = if b then "yes" else "no"

let cell_obs (c : Stm_litmus.Matrix.certified) =
  let open Stm_litmus.Matrix in
  let e = c.enum and d = c.dpor in
  if e.observed <> e.expected || d.observed <> e.expected then
    Printf.ksprintf failwith "verdict enum=%s dpor=%s, paper %s" (yn e.observed)
      (yn d.observed) (yn e.expected);
  if not (cell_certified c) then failwith "not certified";
  {
    checked =
      Printf.sprintf "expected=%s enum=%s/%d%s dpor=%s/%d%s complete=%b races=%d"
        (yn e.expected) (yn e.observed) e.runs
        (if e.truncated then "/truncated" else "")
        (yn d.observed) d.runs
        (if d.truncated then "/truncated" else "")
        c.complete c.races;
    counters =
      [
        ("schedules", e.runs + d.runs);
        ("litmus.enum_runs", e.runs);
        ("litmus.dpor_runs", d.runs);
        ("litmus.races", c.races);
        ("litmus.incomplete_cells", if d.observed || c.complete then 0 else 1);
      ];
  }

(* The traced run splits [certify_cell] into its two engines so each
   gets its own span; the untraced run calls [certify_cell] itself, and
   the traced/untraced equality check holds the split to it. *)
let certify_split (p : Stm_litmus.Programs.t) mode bound =
  let open Stm_litmus in
  let enum =
    Span.with_ "litmus.enum" (fun () ->
        Matrix.run_cell ~preemption_bound:bound ~max_runs p mode)
  in
  let d =
    Span.with_ "litmus.dpor" (fun () ->
        let cfg = Modes.config ~granule:p.Programs.needs_granule mode in
        let make () = p.Programs.build (Modes.harness mode cfg) in
        Explorer.explore_dpor ~preemption_bound:bound ~max_runs
          ~stop_when:p.Programs.is_anomalous ~cfg ~make ())
  in
  let x = d.Explorer.exploration in
  {
    Matrix.enum;
    dpor =
      {
        enum with
        Matrix.observed = Explorer.observed x p.Programs.is_anomalous;
        runs = x.Explorer.runs;
        truncated = x.Explorer.truncated;
      };
    complete = d.Explorer.complete;
    races = d.Explorer.races;
  }

let cell_uid i (p : Stm_litmus.Programs.t) mode bound =
  Printf.sprintf "%03d:%s/%s/b%d" i p.Stm_litmus.Programs.name
    (Stm_litmus.Modes.name mode) bound

let dpor_units ~seed:_ =
  Stm_litmus.Matrix.full_matrix ()
  |> List.mapi (fun i (p, mode, bound) ->
         {
           uid = cell_uid i p mode bound;
           group = "";
           run =
             (fun () ->
               cell_obs
                 (Stm_litmus.Matrix.certify_cell ~preemption_bound:bound p mode));
           traced = (fun () -> cell_obs (certify_split p mode bound));
         })
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Expect-clean fuzz campaigns                                         *)
(* ------------------------------------------------------------------ *)

(* Programs per campaign: sets the pass length (3 random schedules per
   program). *)
let fuzz_programs = 300

let campaign_obs ~runs ~anomalies ~inconclusive =
  if anomalies > 0 then Printf.ksprintf failwith "%d anomalous histories" anomalies;
  {
    (* clean and the execution count are seed-independent; how many
       executions were inconclusive is not, so it is only compared
       between the traced and untraced runs *)
    checked = Printf.sprintf "clean runs=%d" runs;
    counters =
      [
        ("schedules", runs);
        ("check.runs", runs);
        ("check.inconclusive", inconclusive);
      ];
  }

(* [Fuzz.run_campaign]'s loop for an expect-clean campaign, over the
   programs the set-up generated, with one span per execution and per
   oracle call. The oracle is called a second time, as
   [History.certify], on every history the execution collected: that
   call alone is timed as the oracle's cost. *)
let campaign_split (b : Stm_check.Fuzz.budget) (c : Stm_check.Fuzz.campaign) progs =
  let open Stm_check in
  let runs = ref 0 and anomalies = ref 0 and inconclusive = ref 0 in
  Array.iteri
    (fun p prog ->
      for s = 0 to b.Fuzz.seeds - 1 do
        let sched_seed = ((b.Fuzz.base_seed + p) * 8191) + s in
        let cfg = Combo.to_config ~cm_seed:sched_seed c.Fuzz.combo in
        let verdict, hist =
          Span.with_ "check.exec" (fun () ->
              Exec.run ~policy:(Stm_runtime.Sched.Random sched_seed)
                ~max_steps:b.Fuzz.max_steps ~cfg prog)
        in
        incr runs;
        (match verdict with
        | History.Inconclusive _ -> incr inconclusive
        | History.Serializable -> ()
        | History.Anomalous _ -> incr anomalies);
        Option.iter
          (fun h ->
            Span.with_ "check.oracle" (fun () ->
                ignore (History.certify prog h : History.certification)))
          hist
      done)
    progs;
  campaign_obs ~runs:!runs ~anomalies:!anomalies ~inconclusive:!inconclusive

(* The set-up generates every campaign's programs. The untraced run
   calls [Fuzz.run_campaign], which generates them again itself; the
   traced run executes the set-up's copies. *)
let fuzz_units ~seed =
  let open Stm_check in
  let budget =
    { Fuzz.default_budget with Fuzz.programs = fuzz_programs; base_seed = seed }
  in
  let generated =
    List.sort_uniq compare
      (List.map (fun (c : Fuzz.campaign) -> c.Fuzz.profile) Fuzz.clean_campaigns)
    |> List.map (fun profile ->
           let gcfg = Gen.default profile in
           ( profile,
             Span.with_ "check.gen" (fun () ->
                 Array.init fuzz_programs (fun p -> Gen.generate gcfg ~seed:(seed + p))) ))
  in
  List.map
    (fun (c : Fuzz.campaign) ->
      {
        uid = Fuzz.campaign_name c;
        group = "";
        run =
          (fun () ->
            let r = Fuzz.run_campaign budget c in
            campaign_obs ~runs:r.Fuzz.runs ~anomalies:r.Fuzz.anomalies
              ~inconclusive:r.Fuzz.inconclusive);
        traced =
          (fun () -> campaign_split budget c (List.assoc c.Fuzz.profile generated));
      })
    Fuzz.clean_campaigns
  |> Array.of_list

let all =
  [
    {
      name = "jvm98-barriers";
      setup = jvm98_units;
    };
    {
      name = "txn-scaling";
      setup = txn_units;
    };
    {
      name = "dpor-certify";
      setup = dpor_units;
    };
    {
      name = "fuzz-clean";
      setup = fuzz_units;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
