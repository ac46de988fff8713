open Stm_runtime

type exploration = {
  outcomes : (string * int) list;
  runs : int;
  truncated : bool;
  livelocks : int;
  deadlocks : int;
}

type instance = { main : unit -> unit; observe : unit -> string }

(* One run's scheduling decisions in an array-backed buffer: decision
   [i] chose [chosen.(i)] from [ready.(i)], the list the scheduler passed
   its callback (consecutive decisions over an unchanged runnable set
   share it). [explore] keeps one buffer per DFS depth and refills it on
   every run at that depth, so recording a decision allocates nothing
   once the buffer has grown to the run's length. *)
type trace = {
  mutable chosen : Sched.tid array;
  mutable ready : Sched.tid list array;
  mutable len : int;
}

let new_trace () = { chosen = Array.make 64 0; ready = Array.make 64 []; len = 0 }

let trace_push tr chosen ready =
  let n = tr.len in
  if n = Array.length tr.chosen then begin
    let c = Array.make (2 * n) 0 and r = Array.make (2 * n) [] in
    Array.blit tr.chosen 0 c 0 n;
    Array.blit tr.ready 0 r 0 n;
    tr.chosen <- c;
    tr.ready <- r
  end;
  tr.chosen.(n) <- chosen;
  tr.ready.(n) <- ready;
  tr.len <- n + 1

type state = {
  mutable outcome_tbl : (string, int) Hashtbl.t;
  mutable runs : int;
  mutable livelocks : int;
  mutable deadlocks : int;
  max_runs : int;
  mutable truncated : bool;
}

exception Search_done

let record_outcome tbl outcome =
  Hashtbl.replace tbl outcome
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl outcome))

(* The default scheduling policy: stay on the current thread while it is
   runnable, rotating to the next runnable thread (wrapping) once it has
   been picked [fairness_window] times in a row. *)
type fairness = { mutable last : Sched.tid; mutable streak : int }

let fairness () = { last = -1; streak = 0 }

let default_pick f ~fairness_window current runnables =
  if List.mem current runnables then
    if f.last = current && f.streak >= fairness_window then
      match List.find_opt (fun t -> t > current) runnables with
      | Some t -> t
      | None -> List.hd runnables
    else current
  else List.hd runnables

(* Fairness bookkeeping follows the thread actually picked. *)
let note_pick f chosen =
  if chosen = f.last then f.streak <- f.streak + 1
  else begin
    f.last <- chosen;
    f.streak <- 1
  end

(* [stop_when] is a function of the outcome string; an exploration
   meets few distinct outcomes over many runs, and a litmus predicate
   parses its outcome, so each distinct outcome is tested once. *)
let memo_stop = function
  | None -> fun _ -> false
  | Some pred ->
      let seen = Hashtbl.create 16 in
      fun outcome ->
        match Hashtbl.find_opt seen outcome with
        | Some b -> b
        | None ->
            let b = pred outcome in
            Hashtbl.add seen outcome b;
            b

let default_chooser ?(fairness_window = 64) () =
  let fair = fairness () in
  fun current ready ->
    let chosen = default_pick fair ~fairness_window current ready in
    note_pick fair chosen;
    chosen

(* Execute one schedule into [trace]. The first [plen] choices are
   forced: [pre.(i)] for [i < plen - 1], then [flip] at [plen - 1] (the
   parent run's choices up to the flipped decision); afterwards the
   default policy applies. Returns the outcome string. *)
let execute st ~max_steps ~fairness_window ~cfg ~make ~trace ~pre ~plen ~flip =
  if st.runs >= st.max_runs then begin
    st.truncated <- true;
    raise Search_done
  end;
  st.runs <- st.runs + 1;
  let inst = make () in
  trace.len <- 0;
  let fair = fairness () in
  let choose current ready =
    let i = trace.len in
    let chosen =
      if i < plen then if i = plen - 1 then flip else pre.(i)
      else default_pick fair ~fairness_window current ready
    in
    note_pick fair chosen;
    trace_push trace chosen ready;
    chosen
  in
  let result =
    Stm_core.Stm.run ~policy:(Sched.Controlled choose) ~max_steps ~cfg
      inst.main
  in
  let sched_result = fst result in
  let outcome =
    match sched_result.Sched.status with
    | Sched.Completed -> (
        match sched_result.Sched.exns with
        | [] -> inst.observe ()
        | (_, ex) :: _ -> "<exn:" ^ Printexc.to_string ex ^ ">")
    | Sched.Deadlock _ -> "<deadlock>"
    | Sched.Fuel_exhausted -> "<livelock>"
  in
  (* A fuel-exhausted schedule is accounted in [livelocks] only: it has
     no final state, so recording "<livelock>" as an outcome would break
     [runs = livelocks + sum of outcome counts]. Deadlocks do reach a
     final (stuck) state and stay in the outcome table. *)
  (match sched_result.Sched.status with
  | Sched.Deadlock _ ->
      st.deadlocks <- st.deadlocks + 1;
      record_outcome st.outcome_tbl outcome
  | Sched.Fuel_exhausted -> st.livelocks <- st.livelocks + 1
  | Sched.Completed -> record_outcome st.outcome_tbl outcome);
  outcome

let explore ?(preemption_bound = 2) ?(max_runs = 40_000) ?(max_steps = 60_000)
    ?(fairness_window = 64) ?stop_when ~cfg ~make () =
  let st =
    {
      outcome_tbl = Hashtbl.create 16;
      runs = 0;
      livelocks = 0;
      deadlocks = 0;
      max_runs;
      truncated = false;
    }
  in
  let stop = memo_stop stop_when in
  (* one trace buffer per DFS depth: a run's children run one level
     deeper, so the parent's buffer stays intact while they read their
     forced prefix out of it *)
  let traces = Array.init (max 0 preemption_bound + 1) (fun _ -> new_trace ()) in
  (* DFS over the scheduling tree. The run replays [plen] forced choices
     (see [execute]); [npre] counts injected (non-default) choices. *)
  let rec dfs pre plen flip npre =
    let trace = traces.(npre) in
    if
      stop
        (execute st ~max_steps ~fairness_window ~cfg ~make ~trace ~pre ~plen
           ~flip)
    then raise Search_done;
    if npre < preemption_bound then
      for i = plen to trace.len - 1 do
        let chosen = trace.chosen.(i) in
        List.iter
          (fun alt -> if alt <> chosen then dfs trace.chosen (i + 1) alt (npre + 1))
          trace.ready.(i)
      done
  in
  (try dfs [||] 0 0 0 with Search_done -> ());
  let outcomes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.outcome_tbl []
    |> List.sort compare
  in
  {
    outcomes;
    runs = st.runs;
    truncated = st.truncated;
    livelocks = st.livelocks;
    deadlocks = st.deadlocks;
  }

let observed e pred = List.exists (fun (o, _) -> pred o) e.outcomes

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction                                     *)
(* ------------------------------------------------------------------ *)

(* Backtracking at races instead of at every decision (Flanagan &
   Godefroid, POPL 2005), with sleep sets pruning the redundant
   interleavings that race-directed backtracking still generates.

   The unit of reordering is the {e scheduler segment}: everything one
   thread executes between two consecutive scheduling decisions. The
   runtime reports every access to cross-thread-visible state through
   {!Stm_runtime.Footprint}; the engine aggregates them into one
   footprint per segment. Two segments are dependent when they belong
   to the same thread, share a granule at least one of them writes, or
   one enables the other (a thread becomes runnable right after a
   segment: spawn, join completion, lock hand-off, quiescence wake).
   For each executed schedule the engine computes the happens-before
   relation with vector clocks; every pair of conflicting segments not
   already ordered through intermediaries is a race, and the reversal
   is scheduled by inserting the racing thread into the backtrack set
   of the earlier segment's pre-state. *)

type dpor = { exploration : exploration; complete : bool; races : int }

(* A segment footprint: each granule it touched, once, with the strongest
   access level. 2 = write, 1 = read, 0 = futile spin-wait re-read
   ({!Stm_runtime.Footprint.Spin_read}). A write is {e dependent} on all
   three (it must be ordered against them for the happens-before pass),
   but only write/write and write/read pairs are {e races} worth
   reversing: flipping a write against a futile spin iteration merely
   changes how often the waiter re-checks before the same exit — the
   spin-assume reduction of await loops. Footprints are a few granules
   and one is kept per segment of every run, so a list beats a hash
   table (which has at least 16 buckets) on both time and space; a
   repeated access returns the footprint unchanged, allocating nothing. *)
type fp = (int * int) list

let level = function
  | Footprint.Spin_read -> 0
  | Footprint.Read -> 1
  | Footprint.Write -> 2

let rec fp_add (f : fp) oid lv : fp =
  match f with
  | [] -> [ (oid, lv) ]
  | (o, l) :: rest when o = oid -> if lv > l then (oid, lv) :: rest else f
  | x :: rest ->
      let rest' = fp_add rest oid lv in
      if rest' == rest then f else x :: rest'

(* Dependency: a shared granule at least one side writes (spin reads
   included — ordering matters even where reversal is pointless). *)
let fp_conflicts (a : fp) (b : fp) =
  List.exists
    (fun (oid, lv) ->
      List.exists (fun (o, l) -> o = oid && (lv = 2 || l = 2)) b)
    a

(* Happens-before pass over one run's segments: segment [j] was run by
   [chosen.(j)], picked from [runnables.(j)], and touched [fps.(j)].
   Dependent = same thread (program order), enabledness edge, or
   footprint conflict; each conflicting pair not already ordered is an
   immediate race. Returns the races [(i, j)] with [j >= start] (earlier
   pairs were analyzed when their segments first executed), ordered by
   [j], then nearest [i] first.

   The pass is linear in the trace: per granule and thread it keeps the
   latest segment that accessed the granule (with that access's level)
   and the latest that wrote it, so each segment meets at most one
   candidate per thread. That is exact. An older candidate of the same
   thread is program-ordered before the nearest one; candidates are
   joined nearest first, so by the time an older one would be tested the
   nearest has ordered it (it is never an immediate race), and joining
   it adds nothing (clocks are monotone along a thread). Each segment's
   clock is referenced from the index, so no per-segment table is kept. *)
type gidx = {
  acc : int array;  (* per thread: latest accessing segment, or -1 *)
  acc_lv : int array;  (* ... and its level *)
  acc_c : int array array;  (* ... and its clock *)
  wr : int array;  (* per thread: latest writing segment, or -1 *)
  wr_c : int array array;  (* ... and its clock *)
}

let race_pairs ~(chosen : Sched.tid array) ~(runnables : Sched.tid list array)
    ~(fps : fp array) ~start =
  let m = Array.length chosen in
  let nt =
    1
    + Array.fold_left max
        (Array.fold_left (List.fold_left max) 0 runnables)
        chosen
  in
  let no_clock = [||] in
  let idx : (int, gidx) Hashtbl.t = Hashtbl.create 64 in
  let last_c = Array.make nt no_clock in
  let nseg = Array.make nt 0 in
  (* enabledness edges: a thread runnable at decision [j] but not at
     [j-1] was enabled by segment [j-1]; the edge is joined at that
     thread's next segment *)
  let pending = Array.make nt [] in
  let cand = Array.make nt (-1) in
  let cand_race = Array.make nt false in
  let cand_c = Array.make nt no_clock in
  let order = Array.make nt 0 in
  let prev_c = ref no_clock in
  let pairs = ref [] in
  for j = 0 to m - 1 do
    let t = chosen.(j) in
    if j > 0 then
      List.iter
        (fun u ->
          if not (List.mem u runnables.(j - 1)) then
            pending.(u) <- !prev_c :: pending.(u))
        runnables.(j);
    let c = Array.make nt 0 in
    let join src = Array.iteri (fun u v -> if v > c.(u) then c.(u) <- v) src in
    join last_c.(t);
    List.iter join pending.(t);
    pending.(t) <- [];
    (* the nearest conflicting segment of every other thread, flagged
       when the pair is a reversible race (write/write or write/read on
       some shared granule) rather than merely ordering-relevant
       (write/spin-read) *)
    Array.fill cand 0 nt (-1);
    List.iter
      (fun (oid, lv) ->
        match Hashtbl.find_opt idx oid with
        | None -> ()
        | Some g ->
            for u = 0 to nt - 1 do
              if u <> t then begin
                let i = if lv = 2 then g.acc.(u) else g.wr.(u) in
                let race = if lv = 2 then g.acc_lv.(u) >= 1 else lv >= 1 in
                if i > cand.(u) then begin
                  cand.(u) <- i;
                  cand_race.(u) <- race;
                  cand_c.(u) <- (if lv = 2 then g.acc_c.(u) else g.wr_c.(u))
                end
                else if i >= 0 && i = cand.(u) && race then
                  cand_race.(u) <- true
              end
            done)
      fps.(j);
    (* nearest first, so that a chain through a later conflict orders
       the earlier ones before they are tested *)
    let n = ref 0 in
    for u = 0 to nt - 1 do
      if cand.(u) >= 0 then begin
        let k = ref !n in
        while !k > 0 && cand.(order.(!k - 1)) < cand.(u) do
          order.(!k) <- order.(!k - 1);
          decr k
        done;
        order.(!k) <- u;
        incr n
      end
    done;
    for k = 0 to !n - 1 do
      let u = order.(k) in
      let ci = cand_c.(u) in
      if cand_race.(u) && c.(u) < ci.(u) && j >= start then
        pairs := (cand.(u), j) :: !pairs;
      join ci
    done;
    nseg.(t) <- nseg.(t) + 1;
    c.(t) <- nseg.(t);
    last_c.(t) <- c;
    prev_c := c;
    List.iter
      (fun (oid, lv) ->
        let g =
          match Hashtbl.find_opt idx oid with
          | Some g -> g
          | None ->
              let g =
                {
                  acc = Array.make nt (-1);
                  acc_lv = Array.make nt 0;
                  acc_c = Array.make nt no_clock;
                  wr = Array.make nt (-1);
                  wr_c = Array.make nt no_clock;
                }
              in
              Hashtbl.add idx oid g;
              g
        in
        g.acc.(t) <- j;
        g.acc_lv.(t) <- lv;
        g.acc_c.(t) <- c;
        if lv = 2 then begin
          g.wr.(t) <- j;
          g.wr_c.(t) <- c
        end)
      fps.(j)
  done;
  List.rev !pairs

(* One node of the schedule tree: the pre-state of segment [i], i.e.
   the state in which scheduling decision [i] is taken. Determinism of
   the simulation means the prefix of choices identifies the state, so
   the node can cache what every visit re-derives identically. *)
type node = {
  n_runnables : Sched.tid list;
  n_default : Sched.tid;  (* what the default policy picks here *)
  mutable n_chosen : Sched.tid;  (* choice of the branch being explored *)
  mutable n_done : (Sched.tid * fp) list;
      (* explored choices, each with its first segment's footprint *)
  mutable n_backtrack : Sched.tid list;  (* pending race reversals *)
  n_sleep : (Sched.tid * fp) list;
      (* threads whose next segment (with that footprint) is already
         covered by a sibling branch of an ancestor *)
  n_preemptions : int;  (* non-default choices among strict ancestors *)
}

(* Per-run record of one decision, before it has a node. *)
type rdec = {
  r_chosen : Sched.tid;
  r_default : Sched.tid;
  r_runnables : Sched.tid list;
  r_sleep : (Sched.tid * fp) list;  (* entry sleep set at this decision *)
}

(* Execute one schedule under the footprint sink. [prefix] replays the
   current branch; free decisions follow the same default policy as
   [execute] (stay, rotate after the fairness window), except that with
   sleep sets on, a default whose next step is asleep is swapped for a
   non-sleeping runnable. Returns the decisions (capped at [horizon]),
   their footprints, the scheduler status and the outcome. *)
let execute_dpor st ~max_steps ~fairness_window ~cfg ~make ~use_sleep
    ~(nodes : node array) ~nnodes ~horizon prefix =
  if st.runs >= st.max_runs then begin
    st.truncated <- true;
    raise Search_done
  end;
  st.runs <- st.runs + 1;
  Sim_mutex.reset_ids ();
  let inst = make () in
  let decs = ref [] in
  let fps = ref [] in
  let ndecisions = ref 0 in
  let fair = fairness () in
  let cur_fp = ref ([] : fp) in
  let cur_sleep = ref [] in
  let recording = ref true in
  let choose current runnables =
    let i = !ndecisions in
    incr ndecisions;
    if i >= horizon then begin
      (* beyond the analysis horizon: stop recording (and sleeping) and
         let the plain default policy finish or burn out the run *)
      if !recording then begin
        recording := false;
        (* close the last recorded segment so decisions and footprints
           stay in lockstep *)
        fps := !cur_fp :: !fps;
        cur_sleep := []
      end;
      let default = default_pick fair ~fairness_window current runnables in
      note_pick fair default;
      default
    end
    else begin
      (* close the previous segment; the pre-first-decision preamble is
         discarded (it is a fixed prefix of every schedule) *)
      let prev_fp = !cur_fp in
      if i > 0 then fps := prev_fp :: !fps;
      cur_fp := [];
      (* wake sleepers whose pending step conflicts with the segment
         that just ran *)
      if use_sleep && i > 0 then
        cur_sleep :=
          List.filter (fun (_, f) -> not (fp_conflicts f prev_fp)) !cur_sleep;
      let entry_sleep = !cur_sleep in
      let default =
        let policy_default =
          default_pick fair ~fairness_window current runnables
        in
        if use_sleep && List.mem_assoc policy_default entry_sleep then
          (* the policy default's next step is covered by an explored
             sibling: divert to a non-sleeping runnable. The divert is
             the effective default — it is not a preemption the search
             chose, so it is not charged against the bound. *)
          match
            List.filter
              (fun t -> not (List.mem_assoc t entry_sleep))
              runnables
          with
          | t :: _ -> t
          | [] -> policy_default
        else policy_default
      in
      let chosen = if i < Array.length prefix then prefix.(i) else default in
      note_pick fair chosen;
      (* siblings explored earlier from this node go to sleep for the
         branch below [chosen] *)
      if use_sleep then begin
        let fresh =
          if i < nnodes then
            List.filter
              (fun (t, _) -> t <> chosen && not (List.mem_assoc t entry_sleep))
              nodes.(i).n_done
          else []
        in
        cur_sleep :=
          fresh @ List.filter (fun (t, _) -> t <> chosen) entry_sleep
      end;
      decs :=
        {
          r_chosen = chosen;
          r_default = default;
          r_runnables = runnables;
          r_sleep = entry_sleep;
        }
        :: !decs;
      chosen
    end
  in
  Footprint.set_sink
    (Some
       (fun oid k ->
         if !recording then cur_fp := fp_add !cur_fp oid (level k)));
  let result =
    Fun.protect
      ~finally:(fun () -> Footprint.set_sink None)
      (fun () ->
        Stm_core.Stm.run ~policy:(Sched.Controlled choose) ~max_steps ~cfg
          inst.main)
  in
  (* close the final segment *)
  if !ndecisions > 0 && !recording then fps := !cur_fp :: !fps;
  let sched_result = fst result in
  let outcome =
    match sched_result.Sched.status with
    | Sched.Completed -> (
        match sched_result.Sched.exns with
        | [] -> inst.observe ()
        | (_, ex) :: _ -> "<exn:" ^ Printexc.to_string ex ^ ">")
    | Sched.Deadlock _ -> "<deadlock>"
    | Sched.Fuel_exhausted -> "<livelock>"
  in
  (match sched_result.Sched.status with
  | Sched.Deadlock _ ->
      st.deadlocks <- st.deadlocks + 1;
      record_outcome st.outcome_tbl outcome
  | Sched.Fuel_exhausted -> st.livelocks <- st.livelocks + 1
  | Sched.Completed -> record_outcome st.outcome_tbl outcome);
  ( Array.of_list (List.rev !decs),
    Array.of_list (List.rev !fps),
    sched_result.Sched.status,
    !ndecisions,
    outcome )

let explore_dpor ?preemption_bound ?(max_runs = 40_000) ?(max_steps = 60_000)
    ?(fairness_window = 64) ?(analysis_horizon = 2_000) ?stop_when ~cfg ~make
    () =
  let st =
    {
      outcome_tbl = Hashtbl.create 16;
      runs = 0;
      livelocks = 0;
      deadlocks = 0;
      max_runs;
      truncated = false;
    }
  in
  (* Sleep sets prune the sibling redundancy that race-directed
     backtracking still generates. Combining any partial-order pruning
     with a preemption bound can in principle drop a behavior whose
     reduced-tree representative is over budget (the BPOR pitfall, cf.
     Coons et al., OOPSLA 2013) — which is why certification always
     cross-checks bounded-DPOR verdicts against the enumerative
     baseline (see Matrix.certify and the CI gate). *)
  let use_sleep = true in
  let stop = memo_stop stop_when in
  let races = ref 0 in
  let complete = ref true in
  (* growable stack of schedule-tree nodes along the current branch *)
  let nodes = ref [||] in
  let nnodes = ref 0 in
  let push_node nd =
    if !nnodes = Array.length !nodes then begin
      let bigger = Array.make (max 64 (2 * Array.length !nodes)) nd in
      Array.blit !nodes 0 bigger 0 !nnodes;
      nodes := bigger
    end;
    !nodes.(!nnodes) <- nd;
    incr nnodes
  in
  let bound_ok nd t =
    match preemption_bound with
    | None -> true
    | Some b ->
        nd.n_preemptions + (if t <> nd.n_default then 1 else 0) <= b
  in
  (* Insert the reversal of race (i, j): schedule [tid j] at node [i] if
     it is enabled there, otherwise try every enabled thread. Choices
     already explored, pending, or asleep at [i] are covered. *)
  let insert_backtrack (decs : rdec array) i j =
    let nd = !nodes.(i) in
    let covered t =
      List.mem_assoc t nd.n_done
      || List.mem t nd.n_backtrack
      || List.mem_assoc t nd.n_sleep
    in
    let add t = if not (covered t) then nd.n_backtrack <- t :: nd.n_backtrack in
    let tj = decs.(j).r_chosen in
    if List.mem tj nd.n_runnables then add tj
    else List.iter add nd.n_runnables
  in
  let analyze (decs : rdec array) fps ~start =
    List.iter
      (fun (i, j) ->
        incr races;
        insert_backtrack decs i j)
      (race_pairs
         ~chosen:(Array.map (fun d -> d.r_chosen) decs)
         ~runnables:(Array.map (fun d -> d.r_runnables) decs)
         ~fps ~start)
  in
  let run_branch prefix =
    let decs, fps, status, ndec, outcome =
      execute_dpor st ~max_steps ~fairness_window ~cfg ~make ~use_sleep
        ~nodes:!nodes ~nnodes:!nnodes ~horizon:analysis_horizon prefix
    in
    let m = Array.length decs in
    (* a completed run outrunning the horizon leaves races unanalyzed;
       a fuel-exhausted one is an unfair spin whose suffix adds no new
       final state (documented caveat) *)
    if status = Sched.Completed && ndec > m then complete := false;
    let base = !nnodes in
    (* the flipped node's new branch enters its done set *)
    if base > 0 && m >= base then begin
      let nd = !nodes.(base - 1) and c = decs.(base - 1).r_chosen in
      nd.n_done <- (c, fps.(base - 1)) :: List.remove_assoc c nd.n_done
    end;
    for i = base to m - 1 do
      let d = decs.(i) in
      let preempt =
        if i = 0 then 0
        else
          let p = !nodes.(i - 1) in
          p.n_preemptions + (if p.n_chosen <> p.n_default then 1 else 0)
      in
      push_node
        {
          n_runnables = d.r_runnables;
          n_default = d.r_default;
          n_chosen = d.r_chosen;
          n_done = [ (d.r_chosen, fps.(i)) ];
          n_backtrack = [];
          n_sleep = d.r_sleep;
          n_preemptions = preempt;
        }
    done;
    analyze decs fps ~start:(max 0 (base - 1));
    if stop outcome then begin
      complete := false;
      raise Search_done
    end
  in
  (* pick the deepest node with a usable pending reversal; covered or
     over-budget candidates are dropped for good (they can never become
     eligible: a node's sleep, done-by-then and preemption count are
     fixed) *)
  let rec select i =
    if i < 0 then None
    else
      let nd = !nodes.(i) in
      let rec pick = function
        | [] ->
            nd.n_backtrack <- [];
            None
        | t :: rest ->
            if
              List.mem_assoc t nd.n_done
              || List.mem_assoc t nd.n_sleep
              || not (bound_ok nd t)
            then pick rest
            else begin
              nd.n_backtrack <- rest;
              Some t
            end
      in
      match pick nd.n_backtrack with
      | Some t -> Some (i, t)
      | None -> select (i - 1)
  in
  (try
     run_branch [||];
     let rec loop () =
       match select (!nnodes - 1) with
       | None -> ()
       | Some (i, c) ->
           nnodes := i + 1;
           !nodes.(i).n_chosen <- c;
           let prefix = Array.init (i + 1) (fun j -> !nodes.(j).n_chosen) in
           run_branch prefix;
           loop ()
     in
     loop ()
   with Search_done -> ());
  let outcomes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.outcome_tbl []
    |> List.sort compare
  in
  {
    exploration =
      {
        outcomes;
        runs = st.runs;
        truncated = st.truncated;
        livelocks = st.livelocks;
        deadlocks = st.deadlocks;
      };
    complete = !complete && not st.truncated;
    races = !races;
  }

(* ------------------------------------------------------------------ *)
(* Probabilistic concurrency testing                                   *)
(* ------------------------------------------------------------------ *)

let explore_pct ?(runs = 2000) ?(depth = 3) ?(max_steps = 60_000) ?(seed = 1)
    ?stop_when ~cfg ~make () =
  let rng = Stm_runtime.Det_rng.create seed in
  let outcome_tbl = Hashtbl.create 16 in
  let livelocks = ref 0 in
  let deadlocks = ref 0 in
  let performed = ref 0 in
  let stopped = ref false in
  (let max_threads = 16 in
   (* adaptive horizon: change points are sampled within the length of
      the runs actually observed, so demotions land inside the program *)
   let horizon = ref 256 in
   let run_once () =
     incr performed;
     let inst = make () in
     (* random distinct base priorities per thread; higher runs first *)
     let prio = Array.init max_threads (fun i -> 100 + ((i * 7919) mod 97)) in
     Array.iteri
       (fun i _ ->
         let j = i + Stm_runtime.Det_rng.int rng (max_threads - i) in
         let t = prio.(i) in
         prio.(i) <- prio.(j);
         prio.(j) <- t)
       prio;
     (* choose depth-1 demotion points over the adaptive horizon *)
     let change_points =
       List.init (max 0 (depth - 1)) (fun i ->
           (1 + Stm_runtime.Det_rng.int rng !horizon, i + 1))
     in
     let step = ref 0 in
     let last = ref (-1) in
     let streak = ref 0 in
     let floor_prio = ref (-1000) in
     let choose current runnables =
       incr step;
       (match List.assoc_opt !step change_points with
       | Some demotion when current < max_threads ->
           (* demote the running thread below everything else *)
           prio.(current) <- -demotion
       | _ -> ());
       let pick =
         List.fold_left
           (fun best t ->
             let p tid = if tid < max_threads then prio.(tid) else 0 in
             if p t > p best then t else best)
           (List.hd runnables) runnables
       in
       (* livelock avoidance (deviation from pure PCT): a thread that
          spins through many consecutive steps while others are runnable
          is waiting on a lower-priority thread - demote it so the owner
          can make progress *)
       if pick = !last then incr streak else streak := 1;
       last := pick;
       if !streak > 64 && List.length runnables > 1 && pick < max_threads
       then begin
         decr floor_prio;
         prio.(pick) <- !floor_prio;
         streak := 0
       end;
       pick
     in
     let result, _ =
       Stm_core.Stm.run
         ~policy:(Stm_runtime.Sched.Controlled choose)
         ~max_steps ~cfg inst.main
     in
     let outcome =
       match result.Stm_runtime.Sched.status with
       | Stm_runtime.Sched.Completed -> (
           match result.Stm_runtime.Sched.exns with
           | [] -> inst.observe ()
           | (_, ex) :: _ -> "<exn:" ^ Printexc.to_string ex ^ ">")
       | Stm_runtime.Sched.Deadlock _ ->
           incr deadlocks;
           "<deadlock>"
       | Stm_runtime.Sched.Fuel_exhausted ->
           incr livelocks;
           "<livelock>"
     in
     (* fuel exhaustion is not a final state: livelocks count separately
        from outcomes (same accounting as [explore]) *)
     if result.Stm_runtime.Sched.status <> Stm_runtime.Sched.Fuel_exhausted
     then record_outcome outcome_tbl outcome;
     (* steady-state estimate of the run length in scheduling steps *)
     if result.Stm_runtime.Sched.status = Stm_runtime.Sched.Completed then
       horizon := max 32 (min !step 4096);
     outcome
   in
   let stop = memo_stop stop_when in
   try
     for _ = 1 to runs do
       if stop (run_once ()) then begin
         stopped := true;
         raise Exit
       end
     done
   with Exit -> ());
  {
    outcomes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcome_tbl []
      |> List.sort compare;
    runs = !performed;
    (* A sampler's quota is its definition of the search, not a budget
       that cut an exhaustive walk short: completing [runs] samples
       without hitting [stop_when] is the search finishing, so it never
       reports [truncated]. (Cf. [explore], where [truncated] means
       [max_runs] stopped the DFS before the bounded tree was done.) *)
    truncated = false;
    livelocks = !livelocks;
    deadlocks = !deadlocks;
  }
