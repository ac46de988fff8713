(* Entry point of the repository benchmark. See README.md in this directory.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe record --workload W

   Both run from the root of a checkout: references are read from
   perfbench/ref/ and the traced run's Chrome trace goes to
   perfbench/out/.

   [run] prints a human-readable report and, as its last line, one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with [--trace 0], the per-layer metrics with [--trace 1]. [record]
   rewrites the workload's reference outputs. *)

open Suite

(* the first few failures are reported on stderr *)
let reported = ref 0

let report_failure uid msg =
  incr reported;
  if !reported <= 10 then Printf.eprintf "FAIL %s: %s\n%!" uid msg

(* ------------------------------------------------------------------ *)
(* Reference outputs                                                   *)
(* ------------------------------------------------------------------ *)

let ref_dir = "perfbench/ref"
let out_dir = "perfbench/out"
let ref_path (w : Suite.t) = Filename.concat ref_dir (w.name ^ ".ref")

let load_ref path =
  let tbl = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         match String.index_opt line '\t' with
         | Some i ->
             Hashtbl.replace tbl (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
         | None -> failwith ("malformed reference line: " ^ line)
     done
   with End_of_file -> close_in ic);
  tbl

(* One timed call of a unit, checked against the reference. The time
   covers the library call only, not the check. *)
type sample = { ns : int; obs : obs option }

let exec ?(report = report_failure) refs (u : unit_) f =
  let t0 = Span.now () in
  let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let ns = Span.now () - t0 in
  match r with
  | Error msg ->
      report u.uid msg;
      { ns; obs = None }
  | Ok o -> (
      match Hashtbl.find_opt refs u.uid with
      | Some expected when expected = o.checked -> { ns; obs = Some o }
      | Some expected ->
          report u.uid
            (Printf.sprintf "output differs from reference\n  got      %s\n  expected %s"
               o.checked expected);
          { ns; obs = None }
      | None ->
          report u.uid "no reference output";
          { ns; obs = None })

let failed s = s.obs = None

let error_rate samples =
  float_of_int (List.length (List.filter failed samples))
  /. float_of_int (List.length samples)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest order statistic with at least ten samples above it (the
   maximum when there are fewer than eleven), its percentile, and how
   many samples lie above it. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let k = if n > 10 then n - 11 else n - 1 in
  (a.(k), 100. *. float_of_int (k + 1) /. float_of_int n, n - 1 - k)

let sum_counters obs_list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun o ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        o.counters)
    obs_list;
  fun k -> Option.value ~default:0 (Hashtbl.find_opt tbl k)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let print_table rows =
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "  %-28s %14.6g %-12s %s\n" name v unit note)
    rows

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let setup_once (w : Suite.t) ~seed =
  let units = w.setup ~seed in
  let refs = load_ref (ref_path w) in
  (units, refs)

(* Set up a fixed number of times, keeping the last result; the median
   is the reported set-up time. The count is fixed so that every run
   allocates the same before measuring. *)
let setup_reps = 11

let setup_median w ~seed =
  let times = ref [] and r = ref None in
  for _ = 1 to setup_reps do
    let t0 = Span.now () in
    r := Some (setup_once w ~seed);
    times := Span.secs (Span.now () - t0) :: !times
  done;
  (Option.get !r, median !times)

(* ------------------------------------------------------------------ *)
(* Self-tests                                                          *)
(* ------------------------------------------------------------------ *)

(* The exact allocation counter must read exactly what a probe of known
   size allocates: ten 100-element arrays on the minor heap (101 words
   each with the header) and one 1000-element array allocated directly
   on the major heap (1001 words). *)
let selftest_alloc () =
  let probe () =
    for _ = 1 to 10 do
      ignore (Sys.opaque_identity (Array.make 100 0))
    done;
    ignore (Sys.opaque_identity (Array.make 1000 0))
  in
  let expected = (10 * 101) + 1001 in
  let trials = 2000 in
  let exact = ref 0 and empty_exact = ref 0 in
  for _ = 1 to trials do
    let (), w = Host.measure_words probe in
    if w = fi expected then incr exact;
    let (), w0 = Host.measure_words (fun () -> ()) in
    if w0 = 0. then incr empty_exact
  done;
  let ok = !exact = trials && !empty_exact = trials in
  Printf.printf "selftest alloc: %d/%d probes read exactly %d words, %d/%d empty probes read 0: %s\n"
    !exact trials expected !empty_exact trials
    (if ok then "ok" else "FAILED");
  ok

(* The dpor-certify reference must agree with the paper's Figure 6 on
   all 45 cells and show zero verdict flips between the two engines
   anywhere in the matrix. *)
let selftest_fig6 () =
  let open Stm_litmus in
  let refs = load_ref (ref_path (Option.get (Suite.find "dpor-certify"))) in
  let field line key =
    List.find_map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i when String.sub kv 0 i = key ->
            Some (String.sub kv (i + 1) (String.length kv - i - 1))
        | _ -> None)
      (String.split_on_char ' ' line)
  in
  let verdict line key =
    match field line key with
    | Some v -> List.hd (String.split_on_char '/' v)
    | None -> "?"
  in
  let flips = ref 0 and fig6_ok = ref 0 and fig6_cells = ref 0 in
  List.iteri
    (fun i (p, mode, bound) ->
      match Hashtbl.find_opt refs (Suite.cell_uid i p mode bound) with
      | None -> incr flips
      | Some line ->
          let e = verdict line "enum" and d = verdict line "dpor" in
          if e <> d || Some e <> field line "expected" then incr flips;
          if
            List.memq p Programs.fig6_rows && List.mem mode Modes.all_fig6
          then begin
            incr fig6_cells;
            let paper =
              let row = List.assoc p.Programs.name Matrix.expected_fig6 in
              let rec nth ms bs =
                match (ms, bs) with
                | m :: ms, b :: bs -> if m = mode then b else nth ms bs
                | _ -> failwith "mode outside Figure 6"
              in
              Suite.yn (nth Modes.all_fig6 row)
            in
            if e = paper && d = paper then incr fig6_ok
          end)
    (Matrix.full_matrix ());
  let ok = !flips = 0 && !fig6_cells = 45 && !fig6_ok = 45 in
  Printf.printf
    "selftest fig6: dpor-certify reference matches Figure 6 on %d/%d cells, %d verdict flips: %s\n"
    !fig6_ok !fig6_cells !flips
    (if ok then "ok" else "FAILED");
  ok

(* A perturbed reference must make the unit fail, so error_rate > 0. *)
let selftest_perturbed (units : unit_ array) refs =
  let u = units.(0) in
  let good = exec refs u u.run in
  let bad_refs = Hashtbl.copy refs in
  Hashtbl.replace bad_refs u.uid (Hashtbl.find refs u.uid ^ " perturbed");
  let bad = exec ~report:(fun _ _ -> ()) bad_refs u u.run in
  let ok = error_rate [ good ] = 0. && error_rate [ bad ] > 0. in
  Printf.printf
    "selftest reference: %s passes its reference, error_rate %.0f against a perturbed one: %s\n"
    u.uid (error_rate [ bad ])
    (if ok then "ok" else "FAILED");
  ok

let selftests units refs =
  let a = selftest_alloc () in
  let b = selftest_fig6 () in
  let c = selftest_perturbed units refs in
  a && b && c

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

(* The metrics BENCHMARK.json lists. The others are only printed:
   [sim_minstr_per_s] and [error_rate] are 0 on some workload or commit,
   and a listed metric must never be 0; [unit_p50_ms] is the time of one
   sub-millisecond cell on dpor-certify, and its run-to-run spread there
   exceeds the largest bound a listed metric may have. *)
let end_to_end =
  [ "setup_s"; "wall_s"; "schedules_per_s"; "unit_tail_ms"; "peak_mem_mb" ]

(* Closed loop, one caller: units run in pass order, each starting when
   the previous one returns, round after round, until [seconds] have
   passed and at least one full pass is done. A unit's time is its mean
   over the run: host speed on a shared machine drifts over tens of
   seconds, and the mean integrates that drift over the whole run where
   a median would pick one sample's moment. *)
let run_timed (w : Suite.t) ~seed ~seconds =
  let (units, refs), setup_s = setup_median w ~seed in
  let self_ok = selftests units refs in
  let n = Array.length units in
  let samples = Array.make n [] in
  let first_pass = Array.make n None in
  let attempted = ref 0 and failures = ref 0 and passes = ref 0 in
  let t_start = Span.now () in
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let u = units.(!i) in
    let s = exec refs u u.run in
    incr attempted;
    if failed s then incr failures;
    samples.(!i) <- fi s.ns :: samples.(!i);
    if !passes = 0 then first_pass.(!i) <- s.obs;
    incr i;
    if !i = n then begin
      i := 0;
      incr passes
    end;
    stop := !passes >= 1 && Span.secs (Span.now () - t_start) >= seconds
  done;
  let peak_mb = Host.peak_heap_mb () in
  let unit_ms = Array.to_list (Array.map (fun xs -> mean xs /. 1e6) samples) in
  let wall_s = List.fold_left ( +. ) 0. unit_ms /. 1e3 in
  let tail_ms, tail_pct, beyond = tail unit_ms in
  let c = sum_counters (List.filter_map Fun.id (Array.to_list first_pass)) in
  let schedules = fi (c "schedules") and instrs = fi (c "ir.instrs") in
  Printf.printf "workload %s  seed %d  units/pass %d  rounds %d (+%d units)  unit samples %d\n"
    w.name seed n !passes !i !attempted;
  let rows =
    [
      ("setup_s", setup_s, "s", Printf.sprintf "median of %d set-ups" setup_reps);
      ("wall_s", wall_s, "s", "one pass: sum of per-unit means");
    ]
    @ (if instrs = 0. then []
       else
         [ ("sim_minstr_per_s", instrs /. 1e6 /. wall_s, "Minstr/s",
            Printf.sprintf "%.0f simulated instructions per pass" instrs) ])
    @ [
      ("schedules_per_s", schedules /. wall_s, "1/s",
       Printf.sprintf "%.0f schedule executions per pass" schedules);
      ("unit_p50_ms", median unit_ms, "ms", Printf.sprintf "n=%d per-unit means" n);
      ("unit_tail_ms", tail_ms, "ms",
       Printf.sprintf "p%.1f, n=%d, %d units beyond" tail_pct n beyond);
      ("peak_mem_mb", peak_mb, "MB", "peak major heap");
      ("error_rate", ratio (fi !failures) (fi !attempted), "ratio",
       Printf.sprintf "%d failed / %d attempted" !failures !attempted);
    ]
  in
  print_table rows;
  print_result
    ~correct:(self_ok && !failures = 0)
    ~attempted:!attempted ~failed:!failures
    (List.filter_map
       (fun (k, v, u, _) -> if List.mem k end_to_end then Some (k, v, u) else None)
       rows)

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

let self_layers =
  [
    "setup"; "jtlang.compile"; "jit.optimize"; "analysis.wholeprog"; "pass";
    "unit"; "ir.run"; "litmus.enum"; "litmus.dpor"; "check.gen"; "check.exec";
    "check.oracle";
  ]

let figures = [ "fig15"; "fig16"; "fig17"; "fig18"; "fig19"; "fig20" ]

(* One set-up, then an untraced pass, the same pass with a span around
   every library call and the GC event ring on, and a second untraced
   pass. The traced pass must produce outputs and counters identical to
   the first untraced one: tracing from outside the libraries does not
   perturb the simulation. *)
let run_traced (w : Suite.t) ~seed =
  Span.on := true;
  let units, refs =
    Span.with_ "setup" (fun () -> setup_once w ~seed)
  in
  Span.on := false;
  let self_ok = selftests units refs in
  let n = Array.length units in
  (* untraced pass, with exact allocation and GC counts *)
  let untraced_pass () =
    let t0 = Span.now () in
    let r = Array.map (fun u -> exec refs u u.run) units in
    (r, Span.now () - t0)
  in
  let gc0 = Host.gc_counts () in
  let (plain, untraced_ns), alloc_words = Host.measure_words untraced_pass in
  let gc1 = Host.gc_counts () in
  (* traced pass *)
  let busy = Host.Busy.start () in
  Host.Busy.reset busy;
  Span.on := true;
  let t1 = Span.now () in
  let traced =
    Span.with_ "pass" (fun () ->
        Array.mapi
          (fun i u ->
            Span.current_unit := i;
            let s = Span.with_ "unit" (fun () -> exec refs u u.traced) in
            Host.Busy.poll busy;
            s)
          units)
  in
  let traced_ns = Span.now () - t1 in
  Span.on := false;
  Span.current_unit := -1;
  Host.Busy.poll busy;
  (* a second untraced pass brackets the traced one, so the overhead
     estimate is not skewed by the first pass warming the heap up *)
  let plain2, untraced2_ns = untraced_pass () in
  let untraced_s = Span.secs (untraced_ns + untraced2_ns) /. 2. in
  (* every pass must reproduce the first one's outputs and counters *)
  let mismatches = ref 0 in
  List.iter
    (fun (label, other) ->
      Array.iteri
        (fun i s ->
          match (plain.(i).obs, s.obs) with
          | Some x, Some y when x <> y ->
              incr mismatches;
              report_failure units.(i).uid (label ^ " differs from the first untraced pass")
          | _ -> ())
        other)
    [ ("traced pass", traced); ("second untraced pass", plain2) ];
  let all_samples = List.concat_map Array.to_list [ plain; traced; plain2 ] in
  let failures = List.length (List.filter failed all_samples) + !mismatches in
  let c = sum_counters (List.filter_map (fun s -> s.obs) (Array.to_list plain)) in
  let cf k = fi (c k) in
  (* spans *)
  let spans = Span.all () in
  let span_s = Span.by_name spans in
  let total name = fst (span_s name) in
  let group_s fig =
    List.fold_left
      (fun acc (s : Span.t) ->
        if s.name = "ir.run" && units.(s.unit_id).group = fig then
          acc +. Span.secs (Span.dur s)
        else acc)
      0. spans
  in
  let instrs = cf "ir.instrs" in
  let ir_run = total "ir.run" in
  let enum_s = total "litmus.enum" and dpor_s = total "litmus.dpor" in
  let cell_max_ms =
    if enum_s = 0. then 0.
    else
      List.fold_left
        (fun acc (s : Span.t) ->
          if s.name = "unit" then Float.max acc (fi (Span.dur s) /. 1e6) else acc)
        0. spans
  in
  let exec_s = total "check.exec" and oracle_s = total "check.oracle" in
  let runs = cf "check.runs" in
  let count name = (name, cf name, "count") in
  let metrics =
    [
      ("jtlang.compile_s", total "jtlang.compile", "s");
      ("jit.optimize_s", total "jit.optimize", "s");
      ("analysis.wholeprog_s", total "analysis.wholeprog", "s");
      ("ir.run_s", ir_run, "s");
    ]
    @ List.map (fun fig -> ("ir.run_s." ^ fig, group_s fig, "s")) figures
    @ [
        count "ir.instrs";
        ("ir.ns_per_instr", ratio (ir_run *. 1e9) instrs, "ns/instr");
        count "runtime.sched.switches";
        ("runtime.sched.switches_per_instr",
         ratio (cf "runtime.sched.switches") instrs, "ratio");
        ("sim.cycles", cf "sim.cycles", "cycles");
        count "core.barrier.reads";
        count "core.barrier.writes";
        count "core.barrier.private_hits";
        count "core.barrier.atomic_ops";
        ("core.barrier.private_ratio",
         ratio (cf "core.barrier.private_hits")
           (cf "core.barrier.reads" +. cf "core.barrier.writes"),
         "ratio");
        count "core.txn.commits";
        count "core.txn.aborts";
        ("core.txn.commit_ratio",
         ratio (cf "core.txn.commits") (cf "core.txn.commits" +. cf "core.txn.aborts"),
         "ratio");
        count "core.txn.reads";
        count "core.txn.writes";
        count "core.txn.validations";
        count "cm.conflicts";
        count "cm.wounds";
        ("cm.backoff_cycles", cf "cm.backoff_cycles", "cycles");
        ("litmus.enum_s", enum_s, "s");
        ("litmus.dpor_s", dpor_s, "s");
        count "litmus.enum_runs";
        count "litmus.dpor_runs";
        ("litmus.dpor_reduction",
         ratio (cf "litmus.enum_runs") (cf "litmus.dpor_runs"), "ratio");
        ("litmus.us_per_run.enum", ratio (enum_s *. 1e6) (cf "litmus.enum_runs"), "us/run");
        ("litmus.us_per_run.dpor", ratio (dpor_s *. 1e6) (cf "litmus.dpor_runs"), "us/run");
        count "litmus.races";
        count "litmus.incomplete_cells";
        ("litmus.cell_max_ms", cell_max_ms, "ms");
        count "check.runs";
        ("check.exec_s", exec_s, "s");
        ("check.oracle_s", oracle_s, "s");
        ("check.us_per_run", ratio (exec_s *. 1e6) runs, "us/run");
        ("check.conclusive_ratio",
         ratio (runs -. cf "check.inconclusive") runs, "ratio");
        ("gc.alloc_mw", alloc_words /. 1e6, "Mw");
        ("gc.words_per_instr", ratio alloc_words instrs, "words/instr");
        ("gc.minor_collections", fi (gc1.Host.minor - gc0.Host.minor), "count");
        ("gc.major_collections", fi (gc1.Host.major - gc0.Host.major), "count");
        ("gc.busy_s", Span.secs busy.Host.Busy.st.busy_ns, "s");
        ("gc.lost_events", fi busy.Host.Busy.st.lost, "count");
        ("trace.overhead_s",
         Span.secs traced_ns -. oracle_s -. untraced_s, "s");
      ]
    @ List.map (fun l -> ("self_s." ^ l, snd (span_s l), "s")) self_layers
  in
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" w.name seed)
  in
  Span.write_chrome trace_file spans
    ~extra:(List.rev busy.Host.Busy.st.intervals);
  Printf.printf
    "workload %s  seed %d  traced run: %d units, untraced passes %.3f s and %.3f s, traced pass %.3f s\n"
    w.name seed n (Span.secs untraced_ns) (Span.secs untraced2_ns) (Span.secs traced_ns);
  Printf.printf "  traced outputs equal untraced: %b; trace written to %s (%d spans)\n"
    (!mismatches = 0) trace_file (List.length spans);
  print_table (List.map (fun (k, v, u) -> (k, v, u, "")) metrics);
  print_result
    ~correct:(self_ok && failures = 0)
    ~attempted:(3 * n) ~failed:failures metrics

(* ------------------------------------------------------------------ *)
(* Reference recording                                                 *)
(* ------------------------------------------------------------------ *)

let record (w : Suite.t) =
  let units = w.setup ~seed:1 in
  let path = ref_path w in
  let oc = open_out path in
  Printf.fprintf oc "# reference outputs of workload %s, one line per unit: uid<TAB>checked output\n"
    w.name;
  Array.iter
    (fun u ->
      let o = u.run () in
      Printf.fprintf oc "%s\t%s\n" u.uid o.checked)
    units;
  close_out oc;
  Printf.printf "recorded %d units to %s\n" (Array.length units) path

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cmd = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (fuzz programs and schedules)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of an untraced run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced run");
    ]
  in
  let usage = "main.exe (run|record) --workload NAME [options]" in
  Arg.parse spec (fun a -> cmd := a) usage;
  let w =
    match Suite.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : Suite.t) -> w.name) Suite.all));
        exit 2
  in
  match (!cmd, !trace) with
  | "run", 0 -> run_timed w ~seed:!seed ~seconds:!seconds
  | "run", 1 -> run_traced w ~seed:!seed
  | "record", _ -> record w
  | _ ->
      prerr_endline usage;
      exit 2
