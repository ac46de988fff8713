(* Tests for the simulated-machine substrate: deterministic RNG,
   scheduler, virtual clocks, simulated mutex, heap. *)

open Stm_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Det_rng                                                             *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Det_rng.create 42 and b = Det_rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Det_rng.next a) (Det_rng.next b)
  done

let rng_seed_sensitivity () =
  let a = Det_rng.create 1 and b = Det_rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Det_rng.next a = Det_rng.next b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 5)

let rng_bounds () =
  let r = Det_rng.create 7 in
  for _ = 1 to 1000 do
    let v = Det_rng.int r 13 in
    check_bool "in range" true (v >= 0 && v < 13)
  done

let rng_copy_independent () =
  let a = Det_rng.create 9 in
  ignore (Det_rng.next a);
  let b = Det_rng.copy a in
  check_int "copy continues identically" (Det_rng.next a) (Det_rng.next b)

let rng_split () =
  let a = Det_rng.create 11 in
  let b = Det_rng.split a in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if Det_rng.next a = Det_rng.next b then incr matches
  done;
  check_bool "split stream is distinct" true (!matches < 5)

let rng_float_bounds () =
  let r = Det_rng.create 3 in
  for _ = 1 to 200 do
    let f = Det_rng.float r 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let rng_bool_balanced () =
  let r = Det_rng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Det_rng.bool r then incr trues
  done;
  check_bool "bool roughly balanced" true (!trues > 400 && !trues < 600)

(* ------------------------------------------------------------------ *)
(* Sched                                                               *)
(* ------------------------------------------------------------------ *)

let sched_basic_run () =
  let hit = ref false in
  let r = Sched.run (fun () -> hit := true) in
  check_bool "ran" true !hit;
  check_bool "completed" true (r.Sched.status = Sched.Completed)

let sched_spawn_join () =
  let order = ref [] in
  let r =
    Sched.run (fun () ->
        let t =
          Sched.spawn (fun () ->
              Sched.yield ();
              order := "child" :: !order)
        in
        Sched.join t;
        order := "parent" :: !order)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list string)) "join ordering" [ "parent"; "child" ] !order

let sched_clock_ticks () =
  let r =
    Sched.run (fun () ->
        Sched.tick 10;
        Sched.tick 32;
        check_int "time accumulates" 42 (Sched.time ()))
  in
  check_int "makespan" 42 r.Sched.makespan

let sched_join_advances_clock () =
  let r =
    Sched.run (fun () ->
        let t = Sched.spawn (fun () -> Sched.tick 1000) in
        Sched.join t;
        check_bool "joiner clock >= finisher" true (Sched.time () >= 1000))
  in
  check_int "makespan is max clock" 1000 r.Sched.makespan

let sched_min_clock_parallelism () =
  (* two independent threads of equal work: makespan = one thread's work *)
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let work () =
          for _ = 1 to 100 do
            Sched.tick 10;
            Sched.yield ()
          done
        in
        let a = Sched.spawn work and b = Sched.spawn work in
        Sched.join a;
        Sched.join b)
  in
  check_int "parallel makespan" 1000 r.Sched.makespan

let sched_exn_recorded () =
  let r =
    Sched.run (fun () ->
        let t = Sched.spawn (fun () -> failwith "boom") in
        Sched.join t)
  in
  check_bool "completed despite exn" true (r.Sched.status = Sched.Completed);
  check_int "one exn" 1 (List.length r.Sched.exns)

let sched_fuel () =
  let r =
    Sched.run ~max_steps:100 (fun () ->
        while true do
          Sched.yield ()
        done)
  in
  check_bool "fuel exhausted" true (r.Sched.status = Sched.Fuel_exhausted)

let sched_deadlock_detected () =
  let r = Sched.run (fun () -> Sched.suspend ()) in
  (match r.Sched.status with
  | Sched.Deadlock [ 0 ] -> ()
  | _ -> Alcotest.fail "expected deadlock of main");
  ()

let sched_wake () =
  let r =
    Sched.run (fun () ->
        let t = Sched.spawn (fun () -> Sched.suspend ()) in
        (* jump our clock ahead so the child (clock 0) runs and suspends
           at the next yield *)
        Sched.tick 500;
        Sched.yield ();
        Sched.wake t;
        Sched.join t)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  check_bool "woken clock advanced" true (r.Sched.makespan >= 500)

let sched_no_nesting () =
  ignore
    (Sched.run (fun () ->
         match Sched.run (fun () -> ()) with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "nested run should fail"))

let sched_not_running () =
  (match Sched.yield () with
  | exception Sched.Not_in_simulation -> ()
  | () -> Alcotest.fail "yield outside run should raise");
  check_bool "running flag" false (Sched.running ())

let sched_determinism policy () =
  let trace () =
    let log = ref [] in
    let r =
      Sched.run ~policy (fun () ->
          let mk id () =
            for i = 1 to 5 do
              log := (id, i) :: !log;
              Sched.tick ((id * 7) + i);
              Sched.yield ()
            done
          in
          let ts = List.init 3 (fun i -> Sched.spawn (mk i)) in
          List.iter Sched.join ts)
    in
    (!log, r.Sched.makespan)
  in
  let a = trace () and b = trace () in
  check_bool "two runs identical" true (a = b)

let sched_rebase () =
  let r =
    Sched.run (fun () ->
        Sched.tick 1_000_000;
        Sched.rebase ();
        Sched.tick 5)
  in
  check_int "makespan excludes pre-rebase work" 5 r.Sched.makespan

let sched_controlled_policy () =
  (* force the scheduler to always prefer the highest tid *)
  let choose _cur runnables = List.fold_left max 0 runnables in
  let order = ref [] in
  let r =
    Sched.run ~policy:(Sched.Controlled choose) (fun () ->
        let mk id () = order := id :: !order in
        let a = Sched.spawn (mk 1) in
        let b = Sched.spawn (mk 2) in
        Sched.join a;
        Sched.join b)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list int)) "highest tid ran first" [ 1; 2 ] !order

let sched_thread_count () =
  ignore
    (Sched.run (fun () ->
         let t = Sched.spawn (fun () -> ()) in
         Sched.join t;
         check_int "two threads" 2 (Sched.thread_count ())))

(* ------------------------------------------------------------------ *)
(* Sim_mutex                                                           *)
(* ------------------------------------------------------------------ *)

let mutex_excludes () =
  let violations = ref 0 in
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         let inside = ref false in
         let worker () =
           for _ = 1 to 20 do
             Sim_mutex.lock m;
             if !inside then incr violations;
             inside := true;
             Sched.yield ();
             Sched.tick 3;
             Sched.yield ();
             inside := false;
             Sim_mutex.unlock m
           done
         in
         let ts = List.init 4 (fun _ -> Sched.spawn worker) in
         List.iter Sched.join ts));
  check_int "mutual exclusion" 0 !violations

let mutex_reentrant () =
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         Sim_mutex.lock m;
         Sim_mutex.lock m;
         check_bool "held" true (Sim_mutex.held m);
         Sim_mutex.unlock m;
         check_bool "still held after one unlock" true (Sim_mutex.held m);
         Sim_mutex.unlock m;
         check_bool "released" false (Sim_mutex.held m)))

let mutex_wrong_owner () =
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         Sim_mutex.lock m;
         let t =
           Sched.spawn (fun () ->
               match Sim_mutex.unlock m with
               | exception Invalid_argument _ -> ()
               | () -> Alcotest.fail "non-owner unlock should fail")
         in
         Sched.yield ();
         Sched.join t;
         Sim_mutex.unlock m))

let mutex_contention_serializes () =
  (* two threads each hold the lock for 100 cycles: makespan ~200 *)
  let r =
    Sched.run (fun () ->
        let m = Sim_mutex.create Cost.free in
        let worker () =
          Sim_mutex.lock m;
          Sched.tick 100;
          Sched.yield ();
          Sim_mutex.unlock m
        in
        let a = Sched.spawn worker and b = Sched.spawn worker in
        Sched.join a;
        Sched.join b)
  in
  check_bool "serialized" true (r.Sched.makespan >= 200)

let mutex_with_lock_exn_safe () =
  ignore
    (Sched.run (fun () ->
         let m = Sim_mutex.create Cost.free in
         (try Sim_mutex.with_lock m (fun () -> failwith "inner")
          with Failure _ -> ());
         check_bool "released after exception" false (Sim_mutex.held m)))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let heap_alloc_defaults () =
  Heap.reset ();
  let o = Heap.alloc ~cls:"C" 3 in
  check_int "oid deterministic" 1 o.Heap.oid;
  check_int "nfields" 3 (Heap.nfields o);
  check_bool "default null" true (Heap.get o 0 = Heap.Vnull);
  check_int "public txrec" Heap.shared_txrec0 (Atomic.get o.Heap.txrec)

let heap_reset_resets_ids () =
  Heap.reset ();
  let a = Heap.alloc ~cls:"C" 1 in
  Heap.reset ();
  let b = Heap.alloc ~cls:"C" 1 in
  check_int "ids restart" a.Heap.oid b.Heap.oid

let heap_get_set () =
  Heap.reset ();
  let o = Heap.alloc ~cls:"C" 2 in
  Heap.set o 1 (Heap.Vint 42);
  check_bool "roundtrip" true (Heap.get o 1 = Heap.Vint 42)

let heap_value_equal () =
  Heap.reset ();
  let a = Heap.alloc ~cls:"C" 1 and b = Heap.alloc ~cls:"C" 1 in
  check_bool "same ref" true (Heap.value_equal (Heap.Vref a) (Heap.Vref a));
  check_bool "diff refs" false (Heap.value_equal (Heap.Vref a) (Heap.Vref b));
  check_bool "ints" true (Heap.value_equal (Heap.Vint 3) (Heap.Vint 3));
  check_bool "int/null" false (Heap.value_equal (Heap.Vint 3) Heap.Vnull)

let heap_array () =
  Heap.reset ();
  let a = Heap.alloc_array 4 (Heap.Vint 0) in
  check_bool "array kind" true (a.Heap.kind = `Arr);
  check_int "length" 4 (Heap.nfields a)

let heap_statics () =
  Heap.reset ();
  let s = Heap.alloc_statics ~cls:"Main" 2 in
  check_bool "statics kind" true (s.Heap.kind = `Statics)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "runtime:rng",
      [
        case "deterministic" rng_deterministic;
        case "seed sensitivity" rng_seed_sensitivity;
        case "int bounds" rng_bounds;
        case "copy" rng_copy_independent;
        case "split" rng_split;
        case "float bounds" rng_float_bounds;
        case "bool balanced" rng_bool_balanced;
      ] );
    ( "runtime:sched",
      [
        case "basic run" sched_basic_run;
        case "spawn/join" sched_spawn_join;
        case "clock ticks" sched_clock_ticks;
        case "join advances clock" sched_join_advances_clock;
        case "min-clock parallelism" sched_min_clock_parallelism;
        case "exceptions recorded" sched_exn_recorded;
        case "fuel" sched_fuel;
        case "deadlock detection" sched_deadlock_detected;
        case "wake" sched_wake;
        case "no nesting" sched_no_nesting;
        case "not running" sched_not_running;
        case "determinism (min-clock)" (sched_determinism Sched.Min_clock);
        case "determinism (round-robin)" (sched_determinism Sched.Round_robin);
        case "determinism (random 1)" (sched_determinism (Sched.Random 1));
        case "rebase" sched_rebase;
        case "controlled policy" sched_controlled_policy;
        case "thread count" sched_thread_count;
      ] );
    ( "runtime:mutex",
      [
        case "mutual exclusion" mutex_excludes;
        case "reentrant" mutex_reentrant;
        case "wrong owner" mutex_wrong_owner;
        case "contention serializes" mutex_contention_serializes;
        case "with_lock exn safe" mutex_with_lock_exn_safe;
      ] );
    ( "runtime:heap",
      [
        case "alloc defaults" heap_alloc_defaults;
        case "reset ids" heap_reset_resets_ids;
        case "get/set" heap_get_set;
        case "value equality" heap_value_equal;
        case "arrays" heap_array;
        case "statics" heap_statics;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Heap-based Min_clock picker (PR 4): the binary heap must reproduce  *)
(* the old linear min-scan's pick sequence bit-for-bit                 *)
(* ------------------------------------------------------------------ *)

(* Reference model: workers indexed 1..n, each a list of tick amounts.
   A worker is picked len+1 times (start, then once per yield); pick k
   executes tick k. The model is the old linear scan: min (clock, tid)
   over the unfinished workers. Main (tid 0) spawns then joins; its own
   picks never reorder the workers (it only suspends and bumps its own
   clock), so the workers' resume sequence is exactly the model's. *)
let model_min_clock_order workss =
  let clocks = Array.of_list (List.map (fun _ -> 0) workss) in
  let rest = Array.of_list workss in
  let alive = Array.map (fun _ -> true) clocks in
  let n = Array.length clocks in
  let order = ref [] in
  let any_alive () = Array.exists (fun a -> a) alive in
  while any_alive () do
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      if
        alive.(i)
        && (!best = -1
           || clocks.(i) < clocks.(!best)
           || (clocks.(i) = clocks.(!best) && i < !best))
      then best := i
    done;
    let i = !best in
    order := (i + 1) :: !order;
    (match rest.(i) with
    | c :: tl ->
        clocks.(i) <- clocks.(i) + c;
        rest.(i) <- tl
    | [] -> alive.(i) <- false)
  done;
  List.rev !order

let run_min_clock_order workss =
  let order = ref [] in
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let ts =
          List.map
            (fun works ->
              Sched.spawn (fun () ->
                  order := Sched.self () :: !order;
                  List.iter
                    (fun c ->
                      Sched.tick c;
                      Sched.yield ();
                      order := Sched.self () :: !order)
                    works))
            workss
        in
        List.iter Sched.join ts)
  in
  Alcotest.(check bool) "completed" true (r.Sched.status = Sched.Completed);
  List.rev !order

let sched_heap_qcheck =
  let open QCheck in
  [
    (* heap pick order = linear-scan model, with tick 0 forcing clock
       ties so the (clock, tid) tie-break is exercised *)
    Test.make ~name:"sched: heap picks = linear min-scan model" ~count:300
      (list_of_size (Gen.int_range 1 7)
         (list_of_size (Gen.int_range 0 9) (int_range 0 3)))
      (fun workss -> run_min_clock_order workss = model_min_clock_order workss);
    (* replay a recorded schedule trace through the Controlled policy:
       the same decisions must reproduce the run exactly *)
    Test.make ~name:"sched: recorded trace replays identically" ~count:100
      (pair (int_range 0 9999)
         (list_of_size (Gen.int_range 1 5)
            (list_of_size (Gen.int_range 1 8) (int_range 0 5))))
      (fun (seed, workss) ->
        let record policy =
          let order = ref [] in
          let note () = order := Sched.self () :: !order in
          let body works () =
            note ();
            List.iter
              (fun c ->
                Sched.tick c;
                Sched.yield ();
                note ())
              works
          in
          let r =
            Sched.run ~policy (fun () ->
                note ();
                (* main spawns then runs its own segment; no joins, so
                   every scheduling decision hits an instrumented resume
                   point and the recording is the full pick sequence *)
                (match workss with
                | main_works :: rest ->
                    List.iter (fun w -> ignore (Sched.spawn (body w))) rest;
                    List.iter
                      (fun c ->
                        Sched.tick c;
                        Sched.yield ();
                        note ())
                      main_works
                | [] -> ()))
          in
          (List.rev !order, r.Sched.makespan, r.Sched.status)
        in
        let trace, makespan, status = record (Sched.Random seed) in
        (* every pick resumes an instrumented point, so the recording is
           the complete decision sequence, first pick included *)
        let script = ref trace in
        let controlled =
          Sched.Controlled
            (fun _current ready ->
              match !script with
              | tid :: tl ->
                  script := tl;
                  if List.mem tid ready then tid else List.hd ready
              | [] -> List.hd ready)
        in
        let trace', makespan', status' = record controlled in
        status = Sched.Completed && status' = Sched.Completed
        && trace = trace' && makespan = makespan' && !script = []);
  ]

(* Wake/suspend through the heap: wakes re-enqueue at the waker's clock,
   so the resume order interleaves by (clock, tid), not by wake order. *)
let sched_heap_wake_order () =
  let order = ref [] in
  let note () = order := Sched.self () :: !order in
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let ws =
          List.init 3 (fun _ ->
              Sched.spawn (fun () ->
                  note ();
                  Sched.suspend ();
                  note ()))
        in
        (* workers all start and suspend at clock 0 while main is parked
           at 5; then wake w3 at clock 5 and w1 at clock 6 *)
        Sched.tick 5;
        Sched.yield ();
        Sched.wake (List.nth ws 2);
        Sched.tick 1;
        Sched.wake (List.nth ws 0);
        Sched.yield ();
        Sched.wake (List.nth ws 1);
        List.iter Sched.join ws)
  in
  Alcotest.(check bool) "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list int)) "resume order follows (clock, tid)"
    [ 1; 2; 3; 3; 1; 2 ]
    (List.rev !order)

let sched_runnable_count () =
  Sched.run (fun () ->
      check_int "alone" 0 (Sched.runnable_count ());
      let ts = List.init 3 (fun _ -> Sched.spawn (fun () -> Sched.tick 1)) in
      check_int "three spawned" 3 (Sched.runnable_count ());
      ignore (Sched.spawn (fun () -> ()) : Sched.tid);
      check_int "four" 4 (Sched.runnable_count ());
      List.iter Sched.join ts;
      check_int "all spawned threads done" 0 (Sched.runnable_count ()))
  |> fun r ->
  Alcotest.(check bool) "completed" true (r.Sched.status = Sched.Completed)

let suite =
  suite
  @ [
      ( "runtime:sched-heap",
        List.map QCheck_alcotest.to_alcotest sched_heap_qcheck
        @ [
            case "wake order follows (clock, tid)" sched_heap_wake_order;
            case "O(1) runnable count" sched_runnable_count;
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Yield fast path: a yield the pick would answer with the yielding    *)
(* thread itself returns without a context switch, but still counts   *)
(* as one scheduling decision (Min_clock's heap, Random's draw)        *)
(* ------------------------------------------------------------------ *)

let fast_single_thread_switches () =
  List.iter
    (fun n ->
      let r =
        Sched.run ~policy:Sched.Min_clock (fun () ->
            for _ = 1 to n do
              Sched.tick 1;
              Sched.yield ()
            done)
      in
      check_bool "completed" true (r.Sched.status = Sched.Completed);
      check_int (Printf.sprintf "switches for %d yields" n) (n + 1)
        r.Sched.switches;
      check_int "makespan" n r.Sched.makespan)
    [ 0; 1; 7; 1000 ]

let fast_pause_switches () =
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        Sched.pause 10;
        Sched.pause 0;
        Sched.pause 5)
  in
  check_int "one decision per pause" 4 r.Sched.switches;
  check_int "delays charged" 15 r.Sched.makespan

let fast_fuel_boundary () =
  List.iter
    (fun k ->
      let r =
        Sched.run ~max_steps:k ~policy:Sched.Min_clock (fun () ->
            while true do
              Sched.tick 1;
              Sched.yield ()
            done)
      in
      check_bool "fuel exhausted" true (r.Sched.status = Sched.Fuel_exhausted);
      check_int (Printf.sprintf "switches = max_steps %d" k) k r.Sched.switches;
      (* each of the k picks runs one tick-then-yield *)
      check_int "makespan" k r.Sched.makespan)
    [ 1; 2; 50 ]

(* Equal clocks resume in tid order: a yield at a clock tie keeps the
   CPU only if no lower tid is waiting at that clock. *)
let fast_equal_clock_tid_order () =
  let order = ref [] in
  let note s = order := s :: !order in
  let r =
    Sched.run ~policy:Sched.Min_clock (fun () ->
        let t1 =
          Sched.spawn (fun () ->
              note "1a";
              Sched.tick 1;
              Sched.yield ();
              note "1b";
              Sched.yield ();
              note "1c")
        in
        let t2 =
          Sched.spawn (fun () ->
              note "2a";
              Sched.tick 1;
              (* tie with thread 1 at clock 1: tid 1 goes first *)
              Sched.yield ();
              note "2b")
        in
        Sched.join t1;
        Sched.join t2)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  (* 1c follows 1b directly: after 2's yield, thread 1 at clock 1 is
     below thread 2 at the same clock, so its second yield keeps the CPU *)
  Alcotest.(check (list string))
    "resume order" [ "1a"; "2a"; "1b"; "1c"; "2b" ] (List.rev !order);
  (* main; 1a; 2a; 1b; 1c (kept the CPU); main at clock 1 before thread
     2 at clock 1; 2b; main after the join *)
  check_int "switches" 8 r.Sched.switches

(* Random's fast path makes the slow path's draw itself: a fixed seed
   must give the pick sequence and switch count of a scheduler that
   performs every yield, which is what the expected values were
   recorded from. *)
let fast_random_unchanged () =
  let order = ref [] in
  let r =
    Sched.run ~policy:(Sched.Random 42) (fun () ->
        let ts =
          List.init 3 (fun i ->
              Sched.spawn (fun () ->
                  for _ = 1 to 4 do
                    order := (i + 1) :: !order;
                    Sched.tick (i + 1);
                    Sched.yield ()
                  done;
                  Sched.pause 40))
        in
        List.iter Sched.join ts)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list int))
    "pick sequence"
    [ 2; 2; 1; 3; 2; 1; 3; 1; 1; 3; 3; 2 ]
    (List.rev !order);
  check_int "switches" 28 r.Sched.switches

(* [Random]'s fast path must reproduce the slow path's RNG draws, picks
   and switch count exactly. Expected values were recorded from a
   scheduler that performs every yield and every [pause] quantum as an
   effect round trip. The run mixes yields, multi-quantum pauses, a
   zero pause, joins on running threads and a suspend/wake pair. *)
let fast_random_pause_join_suspend () =
  let order = ref [] in
  let note id = order := Printf.sprintf "%d@%d" id (Sched.time ()) :: !order in
  let r =
    Sched.run ~policy:(Sched.Random 7) (fun () ->
        let asleep = ref false in
        let sleeper =
          Sched.spawn (fun () ->
              note 10;
              asleep := true;
              Sched.suspend ();
              note 11;
              Sched.pause 37;
              note 12)
        in
        let ts =
          List.init 3 (fun i ->
              Sched.spawn (fun () ->
                  for j = 1 to 3 do
                    note (i + 1);
                    Sched.pause (10 * (i + 1) * j);
                    Sched.tick 1;
                    Sched.yield ()
                  done;
                  if i = 1 then begin
                    while not !asleep do
                      Sched.yield ()
                    done;
                    Sched.wake sleeper
                  end;
                  Sched.pause 0;
                  note (i + 1)))
        in
        List.iter Sched.join ts;
        note 0;
        Sched.join sleeper;
        note 0)
  in
  check_bool "completed" true (r.Sched.status = Sched.Completed);
  Alcotest.(check (list string))
    "pick sequence"
    [
      "3@0"; "10@0"; "1@0"; "3@31"; "2@0"; "2@21"; "2@62"; "11@123"; "2@123";
      "1@11"; "12@160"; "1@32"; "3@92"; "1@63"; "3@183"; "0@183"; "0@183";
    ]
    (List.rev !order);
  check_int "switches" 49 r.Sched.switches;
  check_int "makespan" 183 r.Sched.makespan

(* The fuel check sits between a fast-path draw that picked another
   thread and the pick that consumes it: [max_steps] still bounds the
   decisions, and the picks up to the boundary are the slow path's. *)
let fast_random_fuel_boundary () =
  let got =
    List.map
      (fun k ->
        let order = ref [] in
        let r =
          Sched.run ~max_steps:k ~policy:(Sched.Random 5) (fun () ->
              let ts =
                List.init 3 (fun i ->
                    Sched.spawn (fun () ->
                        while true do
                          order := i :: !order;
                          Sched.yield ()
                        done))
              in
              List.iter Sched.join ts)
        in
        check_bool "fuel exhausted" true (r.Sched.status = Sched.Fuel_exhausted);
        check_int (Printf.sprintf "switches = max_steps %d" k) k r.Sched.switches;
        String.concat "" (List.rev_map string_of_int !order))
      [ 1; 2; 3; 4; 7; 20 ]
  in
  Alcotest.(check (list string))
    "picks up to the boundary"
    [ ""; "1"; "12"; "121"; "121012"; "1210120120101222001" ]
    got

(* ------------------------------------------------------------------ *)
(* Int_tbl: the int-keyed tables of the STM's conflict path            *)
(* ------------------------------------------------------------------ *)

(* Keys that differ only above the bucket mask must still spread: the
   write buffer's packed (oid, granule) keys are [oid lsl 26 lor base],
   so with an identity hash every granule-0 key shares one bucket. *)
let int_tbl_spreads_high_keys () =
  List.iter
    (fun (name, key) ->
      let t = Int_tbl.create 16 in
      for i = 0 to 999 do
        Int_tbl.replace t (key i) i
      done;
      check_int (name ^ ": all present") 1000 (Int_tbl.length t);
      for i = 0 to 999 do
        check_int (name ^ ": lookup") i (Int_tbl.find t (key i))
      done;
      let st = Int_tbl.stats t in
      check_bool
        (Printf.sprintf "%s: longest bucket %d of %d" name
           st.Hashtbl.max_bucket_length st.Hashtbl.num_buckets)
        true
        (st.Hashtbl.max_bucket_length <= 8))
    [
      ("granule-0 keys", fun i -> i lsl 26);
      ("packed keys", fun i -> (i lsl 26) lor (i mod 4));
      ("small ints", fun i -> i);
      ("negative pseudo-oids", fun i -> -(1 lsl 24) - i);
    ]

let suite =
  suite
  @ [
      ( "runtime:int-tbl",
        [ case "high-bit keys spread over the buckets" int_tbl_spreads_high_keys ]
      );
    ]

(* ------------------------------------------------------------------ *)
(* Controlled yields: the explorer's callback decides on the fast path *)
(* ------------------------------------------------------------------ *)

(* The explorers' default chooser: stay on the current thread while it
   is runnable, rotate to the next runnable tid once it has been picked
   [window] times in a row. *)
let stay_then_rotate window =
  let last = ref (-1) and streak = ref 0 in
  fun cur ready ->
    let pick =
      if List.mem cur ready then
        if !last = cur && !streak >= window then
          match List.find_opt (fun t -> t > cur) ready with
          | Some t -> t
          | None -> List.hd ready
        else cur
      else List.hd ready
    in
    if pick = !last then incr streak
    else begin
      last := pick;
      streak := 1
    end;
    pick

let always_switch cur ready =
  match List.find_opt (fun t -> t > cur) ready with
  | Some t -> t
  | None -> List.hd ready

let scripted_chooser () =
  let script = [| 2; 0; 1; 1; 3; 2; 2; 2; 1; 3; 0; 3; 3; 1; 2 |] in
  let i = ref 0 in
  fun _cur ready ->
    let s = script.(!i mod Array.length script) in
    incr i;
    if List.mem s ready then s else List.hd ready

(* Run [body] under [choose], logging every callback call as
   "current:ready>answer". *)
let logged_controlled ?max_steps choose body =
  let log = ref [] in
  let choose cur ready =
    let a = choose cur ready in
    log :=
      Printf.sprintf "%d:%s>%d" cur
        (String.concat "," (List.map string_of_int ready))
        a
      :: !log;
    a
  in
  let r = Sched.run ?max_steps ~policy:(Sched.Controlled choose) body in
  (List.rev !log, r)

(* Yields, a two-quantum pause, a zero pause, joins on live threads and
   a suspend/wake pair. *)
let controlled_mixed_body () =
  let asleep = ref false in
  let sleeper =
    Sched.spawn (fun () ->
        asleep := true;
        Sched.suspend ();
        Sched.pause 7;
        Sched.tick 3)
  in
  let ts =
    List.init 3 (fun i ->
        Sched.spawn (fun () ->
            for j = 1 to 3 do
              Sched.tick (i + 1);
              Sched.yield ();
              if j = 2 then Sched.pause (5 * (i + 1))
            done;
            if i = 1 then begin
              while not !asleep do
                Sched.yield ()
              done;
              Sched.wake sleeper
            end;
            Sched.pause 0))
  in
  List.iter Sched.join ts;
  Sched.join sleeper

let controlled_spin_body () =
  let ts =
    List.init 3 (fun i ->
        Sched.spawn (fun () ->
            while true do
              Sched.tick (i + 1);
              Sched.yield ();
              Sched.pause 2
            done))
  in
  List.iter Sched.join ts

let check_controlled name (log, r) ~expected ~switches ~makespan ~status =
  Alcotest.(check (list string)) (name ^ ": callback log") expected log;
  check_int (name ^ ": switches") switches r.Sched.switches;
  check_int (name ^ ": makespan") makespan r.Sched.makespan;
  check_bool (name ^ ": status") true (r.Sched.status = status)

(* The expected logs were recorded from a scheduler that performs every
   [Controlled] yield as an effect round trip and calls the callback in
   its pick: the fast path must call it exactly once per decision, with
   the same arguments, and act on the same answers. *)
let fast_controlled_stay_rotate () =
  check_controlled "stay-then-rotate"
    (logged_controlled (stay_then_rotate 2) controlled_mixed_body)
    ~expected:
      [
        "0:0>0"; "0:1,2,3,4>1"; "1:2,3,4>2"; "2:2,3,4>2"; "2:2,3,4>3";
        "3:2,3,4>3"; "3:2,3,4>4"; "4:2,3,4>4"; "4:2,3,4>2"; "2:2,3,4>2";
        "2:2,3,4>3"; "3:2,3,4>3"; "3:2,3,4>4"; "4:2,3,4>4"; "4:2,3,4>2";
        "2:2,3,4>2"; "2:0,3,4>0"; "0:3,4>3"; "3:1,3,4>3"; "3:0,1,4>0";
        "0:1,4>1"; "1:1,4>1"; "1:4>4"; "4:4>4"; "4:0>0";
      ]
    ~switches:25 ~makespan:26 ~status:Sched.Completed

let fast_controlled_always_switch () =
  check_controlled "always-switch"
    (logged_controlled always_switch controlled_mixed_body)
    ~expected:
      [
        "0:0>0"; "0:1,2,3,4>1"; "1:2,3,4>2"; "2:2,3,4>3"; "3:2,3,4>4";
        "4:2,3,4>2"; "2:2,3,4>3"; "3:2,3,4>4"; "4:2,3,4>2"; "2:2,3,4>3";
        "3:2,3,4>4"; "4:2,3,4>2"; "2:2,3,4>3"; "3:2,3,4>4"; "4:2,3,4>2";
        "2:2,3,4>3"; "3:1,2,3,4>4"; "4:1,2,3,4>1"; "1:1,2,3,4>2";
        "2:0,1,3,4>3"; "3:0,1,4>4"; "4:0,1>0"; "0:1>1"; "1:0>0";
      ]
    ~switches:24 ~makespan:26 ~status:Sched.Completed

(* Cut at a first decision, two switching decisions and a staying one:
   the callback is never asked past [max_steps]. *)
let fast_controlled_fuel_boundary () =
  let full =
    [
      "0:0>0"; "0:1,2,3>1"; "1:1,2,3>1"; "1:1,2,3>1"; "1:1,2,3>3"; "3:1,2,3>2";
      "2:1,2,3>2"; "2:1,2,3>2"; "2:1,2,3>1"; "1:1,2,3>3"; "3:1,2,3>1";
      "1:1,2,3>3"; "3:1,2,3>3"; "3:1,2,3>1"; "1:1,2,3>2"; "2:1,2,3>2";
      "2:1,2,3>1"; "1:1,2,3>1"; "1:1,2,3>1"; "1:1,2,3>3"; "3:1,2,3>2";
      "2:1,2,3>2"; "2:1,2,3>2"; "2:1,2,3>1"; "1:1,2,3>3"; "3:1,2,3>1";
      "1:1,2,3>3"; "3:1,2,3>3"; "3:1,2,3>1";
    ]
  in
  List.iter
    (fun (k, makespan) ->
      check_controlled
        (Printf.sprintf "fuel %d" k)
        (logged_controlled ~max_steps:k (scripted_chooser ())
           controlled_spin_body)
        ~expected:(List.filteri (fun i _ -> i < k) full)
        ~switches:k ~makespan ~status:Sched.Fuel_exhausted)
    [ (1, 0); (6, 4); (13, 10); (29, 20) ]

(* A non-runnable answer is the caller's bug, reported out of
   [Sched.run] - not recorded as an exception of the yielding thread -
   whether it comes at a yield or at a pick after a thread blocked. *)
let fast_controlled_bad_answer () =
  let bad_at n answer =
    let calls = ref 0 in
    let choose cur ready =
      incr calls;
      if !calls = n then answer else if List.mem cur ready then cur else List.hd ready
    in
    match
      Sched.run ~policy:(Sched.Controlled choose) (fun () ->
          let t =
            Sched.spawn (fun () ->
                Sched.yield ();
                Sched.yield ())
          in
          Sched.yield ();
          Sched.join t)
    with
    | exception Invalid_argument _ ->
        check_bool "engine released" false (Sched.running ());
        check_int (Printf.sprintf "decision %d: callback calls" n) n !calls
    | r ->
        Alcotest.failf "decision %d answered %d: run returned (%d exns)" n
          answer (List.length r.Sched.exns)
  in
  (* 2: main's yield (fast path), 3: after main blocks in [join] (the
     pick), 4: the spawned thread's yield; main is suspended there *)
  bad_at 2 99;
  bad_at 2 (-1);
  bad_at 3 0;
  bad_at 4 0

let suite =
  suite
  @ [
      ( "runtime:sched-fastpath",
        [
          case "single thread: N yields, N + 1 switches"
            fast_single_thread_switches;
          case "pause counts one decision" fast_pause_switches;
          case "fuel boundary unchanged" fast_fuel_boundary;
          case "equal clocks resume in tid order" fast_equal_clock_tid_order;
          case "random: stream and switches unchanged" fast_random_unchanged;
          case "random: pause, join and suspend unchanged"
            fast_random_pause_join_suspend;
          case "random: fuel boundary after a fast-path draw"
            fast_random_fuel_boundary;
          case "controlled: stay-then-rotate log unchanged"
            fast_controlled_stay_rotate;
          case "controlled: always-switch log unchanged"
            fast_controlled_always_switch;
          case "controlled: fuel boundaries unchanged"
            fast_controlled_fuel_boundary;
          case "controlled: non-runnable answer raises out of run"
            fast_controlled_bad_answer;
        ] );
    ]
