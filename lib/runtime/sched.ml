open Effect
open Effect.Deep

type tid = int

type policy =
  | Round_robin
  | Random of int
  | Min_clock
  | Controlled of (tid -> tid list -> tid)

type status = Completed | Deadlock of tid list | Fuel_exhausted

type result = {
  status : status;
  makespan : int;
  exns : (tid * exn) list;
  switches : int;
}

exception Not_in_simulation

type tstate = Runnable | Running | Suspended | Done

type thread = {
  tid : tid;
  name : string;
  mutable clock : int;
  mutable state : tstate;
  mutable starter : (unit -> unit) option;
      (* body not yet started; scheduler starts it under its own handler *)
  mutable cont : (unit, unit) continuation option;
  mutable joiners : tid list;
}

(* The engine keeps every thread in [by_tid] (tid-indexed, grow-only) and
   the runnable set in two forms: an O(1) [nrunnable] count, and - under
   [Min_clock] - a binary min-heap on the key (clock, tid).

   The heap needs no lazy deletion because a runnable thread's key is
   immutable: [tick] charges only the Running thread (never enqueued),
   and [wake]/[finish] bump only Suspended threads, before re-enqueueing
   them. The single exception is [rebase], which rewrites every clock and
   therefore rebuilds the heap. Since tids are unique the pop order is a
   total order on (clock, tid) - bit-for-bit the pick sequence of the
   linear min-scan it replaces, independent of heap internals. *)
type engine = {
  mutable by_tid : thread array;  (* grows; index = tid *)
  mutable nthreads : int;
  mutable nrunnable : int;
  mutable heap : thread array;  (* Min_clock only; live prefix [heap_len] *)
  mutable heap_len : int;
  mutable current : thread;
  policy : policy;
  rng : Det_rng.t option;
  mutable parked : int;
      (* the answer a yield's fast path obtained for the pick it then
         handed to [loop] ([Random]: the pick index; [Controlled]: the
         chosen tid), -1 when none is pending *)
  mutable ready : tid list;
      (* Controlled: the ascending ready list the next yield of the
         current thread would pass its callback (the runnable tids plus
         the yielding thread), valid while [ready_ok] *)
  mutable ready_ok : bool;
      (* cleared by every change of the runnable set or of the current
         thread - a plain store, where clearing the list itself would
         cost a [caml_modify] on every policy's switch path *)
  mutable rr_cursor : int;
  mutable steps : int;
  max_steps : int;
  mutable exns : (tid * exn) list;
  mutable fuel_out : bool;
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : unit Effect.t

let engine : engine option ref = ref None

let get_engine () =
  match !engine with Some e -> e | None -> raise Not_in_simulation

let thread_of e tid =
  if tid < 0 || tid >= e.nthreads then invalid_arg "Sched: bad tid";
  e.by_tid.(tid)

(* ------------------------------------------------------------------ *)
(* Runnable-set maintenance                                            *)
(* ------------------------------------------------------------------ *)

let heap_less a b = a.clock < b.clock || (a.clock = b.clock && a.tid < b.tid)

let heap_push e t =
  let n = Array.length e.heap in
  if e.heap_len >= n then begin
    let a = Array.make (max 8 (2 * n)) t in
    Array.blit e.heap 0 a 0 n;
    e.heap <- a
  end;
  let h = e.heap in
  let i = ref e.heap_len in
  e.heap_len <- e.heap_len + 1;
  h.(!i) <- t;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    if heap_less h.(!i) h.(p) then begin
      let tmp = h.(p) in
      h.(p) <- h.(!i);
      h.(!i) <- tmp;
      i := p
    end
    else continue_ := false
  done

let heap_pop e =
  let h = e.heap in
  let root = h.(0) in
  e.heap_len <- e.heap_len - 1;
  if e.heap_len > 0 then begin
    h.(0) <- h.(e.heap_len);
    (* sift down *)
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < e.heap_len && heap_less h.(l) h.(!s) then s := l;
      if r < e.heap_len && heap_less h.(r) h.(!s) then s := r;
      if !s <> !i then begin
        let tmp = h.(!s) in
        h.(!s) <- h.(!i);
        h.(!i) <- tmp;
        i := !s
      end
      else continue_ := false
    done
  end;
  root

(* Transition [t] to Runnable. The caller must have finished updating
   [t.clock]: under Min_clock the (clock, tid) key is frozen on entry. *)
let make_runnable e t =
  t.state <- Runnable;
  e.nrunnable <- e.nrunnable + 1;
  e.ready_ok <- false;
  match e.policy with Min_clock -> heap_push e t | _ -> ()

(* Rebuild the heap from scratch (after [rebase] rewrites the keys). *)
let heap_rebuild e =
  match e.policy with
  | Min_clock ->
      e.heap_len <- 0;
      for tid = 0 to e.nthreads - 1 do
        let t = e.by_tid.(tid) in
        if t.state = Runnable then heap_push e t
      done
  | _ -> ()

let grow_by_tid e t =
  let n = Array.length e.by_tid in
  if e.nthreads >= n then begin
    let a = Array.make (max 8 (2 * n)) t in
    Array.blit e.by_tid 0 a 0 n;
    e.by_tid <- a
  end;
  e.by_tid.(e.nthreads) <- t;
  e.nthreads <- e.nthreads + 1

let new_thread e name body =
  let t =
    {
      tid = e.nthreads;
      name;
      clock = e.current.clock;
      state = Suspended;  (* transitioned by make_runnable below *)
      starter = Some body;
      cont = None;
      joiners = [];
    }
  in
  grow_by_tid e t;
  make_runnable e t;
  t

(* Mark a thread finished and release its joiners (they block with
   [Suspend] right after registering, so they are [Suspended] here). *)
let finish e t =
  t.state <- Done;
  e.ready_ok <- false;
  List.iter
    (fun jid ->
      let j = thread_of e jid in
      match j.state with
      | Suspended ->
          if j.clock < t.clock then j.clock <- t.clock;
          make_runnable e j
      | Runnable | Running | Done -> ())
    t.joiners;
  t.joiners <- []

(* Run a fresh thread body under the scheduler's effect handler. Returns
   when the thread yields, suspends, or finishes. The handler's two
   answers are built once per thread, not once per effect. *)
let start_body e t body =
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.cont <- Some k;
        make_runnable e t)
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        t.state <- Suspended;
        e.ready_ok <- false;
        t.cont <- Some k)
  in
  match_with body ()
    {
      retc = (fun () -> finish e t);
      exnc =
        (fun ex ->
          e.exns <- (t.tid, ex) :: e.exns;
          finish e t);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield -> (on_yield : ((a, unit) continuation -> unit) option)
          | Suspend -> on_suspend
          | _ -> None);
    }

(* Ascending list of the runnable tids and [also] (-1 for none): the
   [Controlled] callback contract. *)
let ready_tids e ~also =
  let acc = ref [] in
  for tid = e.nthreads - 1 downto 0 do
    if tid = also || e.by_tid.(tid).state = Runnable then acc := tid :: !acc
  done;
  !acc

(* The k-th runnable thread in tid order, searching from tid [i]:
   [Random]'s pick. *)
let rec kth_runnable e k i =
  let t = e.by_tid.(i) in
  if t.state <> Runnable then kth_runnable e k (i + 1)
  else if k = 0 then t
  else kth_runnable e (k - 1) (i + 1)

let pick e =
  if e.nrunnable = 0 then None
  else
    match e.policy with
    | Round_robin ->
        (* first runnable tid strictly greater than the cursor, else the
           smallest *)
        let chosen = ref None in
        let tid = ref (e.rr_cursor + 1) in
        while !chosen = None && !tid < e.nthreads do
          if e.by_tid.(!tid).state = Runnable then chosen := Some !tid;
          incr tid
        done;
        let tid = ref 0 in
        while !chosen = None do
          if e.by_tid.(!tid).state = Runnable then chosen := Some !tid;
          incr tid
        done;
        let chosen = Option.get !chosen in
        e.rr_cursor <- chosen;
        Some (thread_of e chosen)
    | Random _ ->
        let k =
          if e.parked >= 0 then e.parked
          else Det_rng.int (Option.get e.rng) e.nrunnable
        in
        e.parked <- -1;
        Some (kth_runnable e k 0)
    | Min_clock -> Some (heap_pop e)
    | Controlled choose ->
        let tid =
          if e.parked >= 0 then e.parked
          else choose e.current.tid (ready_tids e ~also:(-1))
        in
        e.parked <- -1;
        if tid < 0 || tid >= e.nthreads || e.by_tid.(tid).state <> Runnable
        then invalid_arg "Sched.Controlled: chose a non-runnable thread";
        Some e.by_tid.(tid)

let rec loop e =
  if e.steps >= e.max_steps then e.fuel_out <- true
  else
    match pick e with
    | None -> ()
    | Some t ->
        e.steps <- e.steps + 1;
        e.current <- t;
        e.ready_ok <- false;
        t.state <- Running;
        e.nrunnable <- e.nrunnable - 1;
        (match t.starter with
        | Some body ->
            t.starter <- None;
            start_body e t body
        | None -> (
            match t.cont with
            | Some k ->
                t.cont <- None;
                continue k ()
            | None -> assert false));
        loop e

let run ?(max_steps = 10_000_000) ?(policy = Min_clock) main =
  if !engine <> None then invalid_arg "Sched.run: simulations cannot nest";
  let rng = match policy with Random seed -> Some (Det_rng.create seed) | _ -> None in
  let t0 =
    {
      tid = 0;
      name = "main";
      clock = 0;
      state = Runnable;
      starter = Some main;
      cont = None;
      joiners = [];
    }
  in
  let e =
    {
      by_tid = Array.make 8 t0;
      nthreads = 1;
      nrunnable = 1;
      heap = Array.make 8 t0;
      heap_len = (match policy with Min_clock -> 1 | _ -> 0);
      current = t0;
      policy;
      rng;
      parked = -1;
      ready = [];
      ready_ok = false;
      rr_cursor = -1;
      steps = 0;
      max_steps;
      exns = [];
      fuel_out = false;
    }
  in
  engine := Some e;
  let finalize () = engine := None in
  (try loop e
   with ex ->
     finalize ();
     raise ex);
  finalize ();
  let makespan = ref 0 in
  for tid = 0 to e.nthreads - 1 do
    makespan := max !makespan e.by_tid.(tid).clock
  done;
  let status =
    if e.fuel_out then Fuel_exhausted
    else
      let stuck = ref [] in
      for tid = e.nthreads - 1 downto 0 do
        match e.by_tid.(tid).state with
        | Done -> ()
        | Runnable | Running | Suspended -> stuck := tid :: !stuck
      done;
      match !stuck with [] -> Completed | l -> Deadlock l
  in
  { status; makespan = !makespan; exns = List.rev e.exns; switches = e.steps }

let spawn ?(name = "thread") body =
  let e = get_engine () in
  (new_thread e name body).tid

(* Runnable threads with a tid below [tid]: the current thread's index
   in [kth_runnable]'s order once the slow path has re-enqueued it. *)
let runnable_below e tid =
  let n = ref 0 in
  for i = 0 to tid - 1 do
    if e.by_tid.(i).state = Runnable then incr n
  done;
  !n

(* The ready list a yield of the running thread hands the [Controlled]
   callback: what the slow path's pick computes once the handler has
   re-enqueued the yielding thread. *)
let yield_ready e =
  if not e.ready_ok then begin
    e.ready <- ready_tids e ~also:e.current.tid;
    e.ready_ok <- true
  end;
  e.ready

(* Would the scheduler, right now, hand the CPU straight back to the
   yielding thread? The fast path then only has to count the scheduling
   decision, and must not run when the fuel check at the top of [loop]
   would stop instead (no pick, hence no draw, happens there).
   - [Min_clock]: the pick is the heap minimum on (clock, tid), a total
     order, so if the current thread's key is below the heap root (or
     the heap is empty) the push-then-pop of the slow path returns it.
   - [Random]: the slow path re-enqueues the current thread and draws
     [k] below [nrunnable + 1]; the current thread is then the k-th
     runnable one iff [k] counts exactly the runnable tids below it.
     The fast path makes that same draw here. If it names another
     thread, the index is parked and the effect performed: [pick]
     consumes the parked index instead of drawing, so the RNG stream,
     the picks, the switch count and the fuel boundary are the slow
     path's.
   - [Controlled]: the fast path asks the callback itself, once, with
     the slow path's arguments: the current tid and [yield_ready]. An
     answer naming the current thread is the slow path's re-pick. Any
     other answer is parked and the effect performed; [pick] validates
     and consumes it instead of asking again, so a non-runnable answer
     still raises out of [run], not into the yielding thread. Between
     the effect and that pick only the re-enqueue runs, so the decision
     happens where it always did: inside the yield, before the thread
     continues.
   [Round_robin] always takes the slow path: its pick advances a
   cursor. *)
let repicks_current e =
  e.steps < e.max_steps
  &&
  match e.policy with
  | Min_clock -> e.heap_len = 0 || heap_less e.current e.heap.(0)
  | Random _ ->
      let k = Det_rng.int (Option.get e.rng) (e.nrunnable + 1) in
      if k = runnable_below e e.current.tid then true
      else begin
        e.parked <- k;
        false
      end
  | Controlled choose ->
      let tid = choose e.current.tid (yield_ready e) in
      tid = e.current.tid
      || begin
           (* a negative answer parks out of range, for [pick] to reject *)
           e.parked <- (if tid < 0 then max_int else tid);
           false
         end
  | Round_robin -> false

let yield_engine e =
  if repicks_current e then e.steps <- e.steps + 1 else perform Yield

let yield () =
  match !engine with None -> raise Not_in_simulation | Some e -> yield_engine e

let self () = (get_engine ()).current.tid

let tick n =
  let e = get_engine () in
  e.current.clock <- e.current.clock + n

let time () = (get_engine ()).current.clock

(* A delay that actually cedes the processor. Under the clock-driven
   policies one tick-then-yield suffices: Min_clock will not re-pick the
   thread until every peer's clock has caught up, so the delay is honored
   by construction. Under [Random] the picker ignores clocks entirely -
   a single yield would make a 500-cycle backoff indistinguishable from
   a 1-cycle one - so the delay is spread over proportionally many
   yields, each a scheduling opportunity granted to the other threads. *)
let pause n =
  let e = get_engine () in
  match e.policy with
  | Random _ ->
      let quantum = 16 in
      let rec go remaining =
        if remaining > 0 then begin
          e.current.clock <- e.current.clock + min quantum remaining;
          yield_engine e;
          go (remaining - quantum)
        end
      in
      if n <= 0 then yield_engine e else go n
  | Round_robin | Min_clock | Controlled _ ->
      e.current.clock <- e.current.clock + max n 0;
      yield_engine e

let rebase () =
  let e = get_engine () in
  for tid = 0 to e.nthreads - 1 do
    e.by_tid.(tid).clock <- 0
  done;
  heap_rebuild e

let suspend () =
  match !engine with None -> raise Not_in_simulation | Some _ -> perform Suspend

let wake tid =
  let e = get_engine () in
  let t = thread_of e tid in
  match t.state with
  | Suspended ->
      if t.clock < e.current.clock then t.clock <- e.current.clock;
      make_runnable e t
  | _ -> ()

let join tid =
  let e = get_engine () in
  let t = thread_of e tid in
  match t.state with
  | Done -> if e.current.clock < t.clock then e.current.clock <- t.clock
  | Runnable | Running | Suspended ->
      t.joiners <- e.current.tid :: t.joiners;
      perform Suspend

let thread_count () = (get_engine ()).nthreads

let runnable_count () = (get_engine ()).nrunnable

let steps () = match !engine with Some e -> e.steps | None -> 0

let running () = !engine <> None
