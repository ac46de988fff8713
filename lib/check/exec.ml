(* Execute a fuzz program on the real STM and collect its history.

   The program runs under the cooperative scheduler through the public
   Stm API, with a Debug-level trace sink recording every completed
   memory access (Trace.Access) and every serialization point
   (Trace.Txn_serialized). Because the scheduler is cooperative and the
   runtime emits these events with no preemption point between the heap
   operation and the emission, trace-arrival order is memory-visibility
   order: the arrival index is a sound serialization stamp.

   Committed transactions become one node each, stamped at their
   Txn_serialized event (under lazy versioning the commit event fires
   only after the write-back window, which can legitimately reorder
   against other threads). Aborted attempts are dropped - their writes
   are rolled back, and any value another node observed from them has no
   committed writer, which the oracle reports as a dirty read. *)

open Stm_runtime
module Config = Stm_core.Config
module Stm = Stm_core.Stm
module Trace = Stm_core.Trace

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_txid : int;
  f_tag : History.tag option;
  f_begin : int;  (* arrival stamp of Txn_begin = snapshot point under mvcc *)
  mutable f_accs : (History.loc * History.value * bool) list;  (* reversed *)
  mutable f_serial : int option;
}

(* What the collector knows about one scheduler thread. *)
type thread_info = {
  mutable tag : History.tag option;  (* current step tag *)
  mutable logical : int;  (* logical thread index, -1 for main *)
  mutable frames : frame list;  (* open txns, innermost first *)
}

type collector = {
  mutable enabled : bool;
  mutable mv : bool;  (* multi-version run: ro txns serialize at snapshot *)
  mutable stamp : int;
  mutable cells_oid : int;
  mutable roots_oid : int;
  box_ids : (int, History.box_id) Hashtbl.t;  (* oid -> box *)
  mutable box_objs : (History.box_id * Heap.obj) list;  (* reversed *)
  mutable threads : thread_info array;  (* index = sched tid *)
  mutable raw_nodes : History.node list;  (* reversed, commit order *)
  mutable init : (History.loc * History.value) list;
  mutable final : (History.loc * History.value) list option;
}

let new_thread_info _ = { tag = None; logical = -1; frames = [] }

(* [nthreads] sizes the thread array for main plus the program's
   threads; a tid beyond it grows the array. *)
let create_collector ~nthreads =
  {
    enabled = false;
    mv = false;
    stamp = 0;
    cells_oid = -1;
    roots_oid = -1;
    box_ids = Hashtbl.create 16;
    box_objs = [];
    threads = Array.init nthreads new_thread_info;
    raw_nodes = [];
    init = [];
    final = None;
  }

let info_of col tid =
  let n = Array.length col.threads in
  if tid >= n then
    col.threads <-
      Array.init (max (tid + 1) (2 * n)) (fun i ->
          if i < n then col.threads.(i) else new_thread_info i);
  col.threads.(tid)

(* The history's view of a heap field and of a heap value. Both raise
   [Not_found] off the fuzz heap (every access event passes through
   here, so no option is built). *)
let loc_of col ~oid ~fld =
  if oid = col.cells_oid then History.Cell fld
  else if oid = col.roots_oid then History.Root fld
  else History.Box_field (Hashtbl.find col.box_ids oid)

let value_of col (v : Heap.value) =
  match v with
  | Heap.Vint n -> History.Vi n
  | Heap.Vref o -> History.Vr (Hashtbl.find col.box_ids o.Heap.oid)
  | _ -> raise Not_found

let as_int (v : Heap.value) = match v with Heap.Vint n -> n | _ -> 0

(* A snapshot or read-back value, off-heap values as their integer. *)
let history_value col v = try value_of col v with Not_found -> History.Vi (as_int v)

(* The frame of [txid] on a thread's open-transaction stack. The event
   almost always concerns the innermost one. *)
let rec find_frame txid = function
  | [] -> None
  | f :: rest -> if f.f_txid = txid then Some f else find_frame txid rest

let rec remove_frame txid = function
  | [] -> []
  | f :: rest -> if f.f_txid = txid then rest else f :: remove_frame txid rest

let pop_frame th txid =
  match find_frame txid th.frames with
  | None -> None
  | Some _ as popped ->
      th.frames <- remove_frame txid th.frames;
      popped

let add_raw col node = col.raw_nodes <- node :: col.raw_nodes

let rec mem_loc l = function
  | [] -> false
  | l' :: rest -> History.loc_equal l l' || mem_loc l rest

let rec mem_write l = function
  | [] -> false
  | (l', _) :: rest -> History.loc_equal l l' || mem_write l rest

(* Split a reversed access list into reads (program order, duplicates
   kept) and last-write-per-location. Reads of a location the node has
   already written observe the node's own pending write (undo-log or
   write-buffer semantics), not another node's version - they impose no
   inter-node dependency and are dropped. A transaction makes a dozen
   accesses at most, so membership is a list scan. *)
let split_accs accs_rev =
  let rec reads own = function
    | [] -> []
    | (l, v, w) :: rest ->
        if w then reads (l :: own) rest
        else if mem_loc l own then reads own rest
        else (l, v) :: reads own rest
  in
  (* latest first: keep a write unless a later one of its location was
     kept; prepending leaves them ordered by their last write *)
  let writes =
    List.fold_left
      (fun acc (l, v, w) -> if w && not (mem_write l acc) then (l, v) :: acc else acc)
      [] accs_rev
  in
  (reads [] (List.rev accs_rev), writes)

let on_event col (ev : Trace.event) =
  col.stamp <- col.stamp + 1;
  let now = col.stamp in
  if col.enabled then
    match ev with
    | Trace.Access { tid; txid; oid; fld; value; write } -> (
        match (loc_of col ~oid ~fld, value_of col value) with
        | exception Not_found -> ()
        | l, v ->
            let th = info_of col tid in
            if txid >= 0 then (
              match find_frame txid th.frames with
              | Some f -> f.f_accs <- (l, v, write) :: f.f_accs
              | None -> ())
            else
              add_raw col
                {
                  History.id = 0;
                  tid = th.logical;
                  txn = false;
                  stamp = now;
                  tag = th.tag;
                  reads = (if write then [] else [ (l, v) ]);
                  writes = (if write then [ (l, v) ] else []);
                })
    | Trace.Txn_begin { txid; tid } ->
        (* begin_txn takes the mvcc snapshot and emits this event in one
           yield-free stretch, so [now] doubles as the snapshot stamp *)
        let th = info_of col tid in
        th.frames <-
          {
            f_txid = txid;
            f_tag = th.tag;
            f_begin = now;
            f_accs = [];
            f_serial = None;
          }
          :: th.frames
    | Trace.Txn_serialized { txid; tid } -> (
        match find_frame txid (info_of col tid).frames with
        | Some f -> f.f_serial <- Some now
        | None -> ())
    | Trace.Txn_commit { txid; tid; _ } -> (
        let th = info_of col tid in
        match pop_frame th txid with
        | None -> ()
        | Some f ->
            let reads, writes = split_accs f.f_accs in
            (* A multi-version read-only transaction serializes at its
               snapshot, not at commit: it reads the versions current at
               begin and skips validation, so a commit that lands between
               its snapshot and its (arbitrarily later) commit event must
               order AFTER it. Update transactions keep the commit-time
               stamp - their writes install at the commit clock. *)
            let stamp =
              if col.mv && writes = [] then f.f_begin
              else Option.value f.f_serial ~default:now
            in
            add_raw col
              {
                History.id = 0;
                tid = th.logical;
                txn = true;
                stamp;
                tag = f.f_tag;
                reads;
                writes;
              })
    | Trace.Txn_abort { txid; tid; _ } -> ignore (pop_frame (info_of col tid) txid)
    | _ -> ()

let finalize_history col =
  let nodes =
    List.sort
      (fun (a : History.node) b -> compare a.stamp b.stamp)
      (List.rev col.raw_nodes)
  in
  let nodes = List.mapi (fun i (n : History.node) -> { n with History.id = i }) nodes in
  {
    History.init = col.init;
    nodes;
    final = Option.value col.final ~default:[];
  }

(* ------------------------------------------------------------------ *)
(* Program body                                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  col : collector;
  prog : Prog.t;
  level : Config.isolation;  (* which contract the oracle certifies *)
  mutable cells : Heap.obj option;
  mutable roots : Heap.obj option;
  mutable clobbered : History.anomaly option;
}

(* The certification level follows the configuration: an mvcc run at the
   snapshot isolation level is judged against the SI contract (write
   skew is legal there); everything else must be serializable. *)
let check_level (cfg : Config.t) =
  match cfg.Config.versioning with
  | Config.Mvcc -> cfg.Config.isolation
  | Config.Eager | Config.Lazy -> Config.Serializable

let set_tag ctx ~thread:t ~step part =
  (info_of ctx.col (Sched.self ())).tag <- Some { History.thread = t; step; part }

let cells_of ctx = Option.get ctx.cells
let roots_of ctx = Option.get ctx.roots

let exec_op ctx ~thread ~step acc k (op : Prog.op) =
  match op with
  | Prog.Read c -> acc := Prog.combine !acc (as_int (Stm.read (cells_of ctx) c))
  | Prog.Write (c, e) ->
      let token = Prog.op_token ~thread ~step ~op:k in
      Stm.write (cells_of ctx) c (Stm.vint (Prog.value_of e ~token ~acc:!acc))
  | Prog.Box_read s -> (
      match Stm.read (roots_of ctx) s with
      | Heap.Vref b -> acc := Prog.combine !acc (as_int (Stm.read b 0))
      | _ -> ())
  | Prog.Box_write s -> (
      match Stm.read (roots_of ctx) s with
      | Heap.Vref b ->
          let token = Prog.op_token ~thread ~step ~op:k in
          Stm.write b 0 (Stm.vint (Prog.value_of Prog.Tok_acc ~token ~acc:!acc))
      | _ -> ())

let exec_step ctx ~thread acc step_idx (step : Prog.step) =
  match step with
  | Prog.Atomic ops ->
      set_tag ctx ~thread ~step:step_idx History.Body;
      let before = !acc in
      Stm.atomic (fun () ->
          acc := before;
          List.iteri (exec_op ctx ~thread ~step:step_idx acc) ops)
  | Prog.Plain op ->
      set_tag ctx ~thread ~step:step_idx History.Body;
      exec_op ctx ~thread ~step:step_idx acc 0 op
  | Prog.Publish s ->
      let b = Stm.alloc ~cls:"fuzz-box" 1 in
      let bid = History.New_box { thread; step = step_idx } in
      Hashtbl.replace ctx.col.box_ids b.Heap.oid bid;
      ctx.col.box_objs <- (bid, b) :: ctx.col.box_objs;
      set_tag ctx ~thread ~step:step_idx History.Pub_init;
      Stm.write b 0
        (Stm.vint (Prog.pub_token ~thread ~step:step_idx * Prog.token_scale));
      set_tag ctx ~thread ~step:step_idx History.Body;
      Stm.atomic (fun () -> Stm.write (roots_of ctx) s (Stm.vref b))
  | Prog.Privatize s -> (
      set_tag ctx ~thread ~step:step_idx History.Body;
      let before = !acc in
      let got =
        Stm.atomic (fun () ->
            acc := before;
            match Stm.read (roots_of ctx) s with
            | Heap.Vref b ->
                Stm.write (roots_of ctx) s
                  (Stm.vint
                     (Prog.tomb_token ~thread ~step:step_idx * Prog.token_scale));
                Some b
            | _ -> None)
      in
      match got with
      | None -> ()
      | Some b ->
          set_tag ctx ~thread ~step:step_idx History.Priv_write;
          let expected =
            Prog.priv_token ~thread ~step:step_idx * Prog.token_scale
          in
          Stm.write b 0 (Stm.vint expected);
          set_tag ctx ~thread ~step:step_idx History.Priv_read;
          let v = Stm.read b 0 in
          acc := Prog.combine !acc (as_int v);
          let ok = match v with Heap.Vint n -> n = expected | _ -> false in
          if (not ok) && ctx.clobbered = None then
            ctx.clobbered <-
              Some
                (History.Private_clobbered
                   {
                     thread;
                     step = step_idx;
                     expected;
                     seen = history_value ctx.col v;
                   }))

let thread_body ctx thread steps () =
  let acc = ref 0 in
  List.iteri (exec_step ctx ~thread acc) steps

let snapshot_final ctx =
  let col = ctx.col in
  let conv = history_value col in
  let cells = cells_of ctx and roots = roots_of ctx in
  let fin = ref [] in
  for i = ctx.prog.Prog.ncells - 1 downto 0 do
    fin := (History.Cell i, conv (Heap.get cells i)) :: !fin
  done;
  for s = ctx.prog.Prog.nslots - 1 downto 0 do
    fin := (History.Root s, conv (Heap.get roots s)) :: !fin
  done;
  List.iter
    (fun (bid, obj) ->
      fin := (History.Box_field bid, conv (Heap.get obj 0)) :: !fin)
    (List.rev col.box_objs);
  col.final <- Some !fin

let main ctx () =
  let prog = ctx.prog in
  let col = ctx.col in
  let ncells = max 1 prog.Prog.ncells in
  let cells = Stm.alloc_public ~cls:"fuzz-cells" ncells in
  for i = 0 to ncells - 1 do
    Stm.write cells i (Stm.vint 0)
  done;
  let roots = Stm.alloc_public ~cls:"fuzz-roots" (max 1 prog.Prog.nslots) in
  for s = 0 to prog.Prog.nslots - 1 do
    let b = Stm.alloc_public ~cls:"fuzz-box" 1 in
    let bid = History.Slot_box s in
    Hashtbl.replace col.box_ids b.Heap.oid bid;
    col.box_objs <- (bid, b) :: col.box_objs;
    Stm.write b 0
      (Stm.vint (Prog.init_box_token ~slot:s * Prog.token_scale));
    Stm.write roots s (Stm.vref b)
  done;
  ctx.cells <- Some cells;
  ctx.roots <- Some roots;
  col.cells_oid <- cells.Heap.oid;
  col.roots_oid <- roots.Heap.oid;
  col.init <-
    List.init prog.Prog.ncells (fun i -> (History.Cell i, History.Vi 0))
    @ List.init prog.Prog.nslots (fun s ->
          (History.Root s, History.Vr (History.Slot_box s)))
    @ List.init prog.Prog.nslots (fun s ->
          ( History.Box_field (History.Slot_box s),
            History.Vi (Prog.init_box_token ~slot:s * Prog.token_scale) ));
  col.enabled <- true;
  let tids =
    List.mapi
      (fun i steps ->
        let t = Sched.spawn ~name:(Printf.sprintf "T%d" i) (thread_body ctx i steps) in
        (info_of col t).logical <- i;
        t)
      prog.Prog.threads
  in
  List.iter Sched.join tids;
  col.enabled <- false;
  snapshot_final ctx

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let default_fuel = 400_000

let verdict_of_run ctx (result : Sched.result) =
  match result.Sched.status with
  | Sched.Fuel_exhausted -> (History.Inconclusive "scheduler fuel exhausted", None)
  | Sched.Deadlock tids ->
      ( History.Inconclusive
          (Printf.sprintf "deadlock (%d threads blocked)" (List.length tids)),
        None )
  | Sched.Completed -> (
      match result.Sched.exns with
      | (tid, e) :: _ ->
          ( History.Anomalous
              (History.Exec_failure
                 (Printf.sprintf "thread %d raised %s" tid (Printexc.to_string e))),
            None )
      | [] -> (
          let h = finalize_history ctx.col in
          match ctx.clobbered with
          | Some a -> (History.Anomalous a, Some h)
          | None -> (History.check_at ctx.level ctx.prog h, Some h)))

let run ?policy ?(max_steps = default_fuel) ?tee ~cfg prog =
  let ctx =
    {
      col = create_collector ~nthreads:(Prog.nthreads prog + 1);
      prog;
      level = check_level cfg;
      cells = None;
      roots = None;
      clobbered = None;
    }
  in
  ctx.col.mv <- cfg.Config.versioning = Config.Mvcc;
  let sink =
    match tee with
    | None -> on_event ctx.col
    | Some f -> fun ev -> on_event ctx.col ev; f ev
  in
  Trace.set_sink ~level:Trace.Debug (Some sink);
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let result, _stats = Stm.run ?policy ~max_steps ~cfg (main ctx) in
      verdict_of_run ctx result)

(* ------------------------------------------------------------------ *)
(* Systematic exploration driver                                       *)
(* ------------------------------------------------------------------ *)

(* Reuses the litmus explorer's preemption-bounded DFS as the schedule
   source: each explored schedule re-executes the program, the observed
   outcome is the verdict's JSON rendering, and the search stops at the
   first anomalous outcome. *)

let anomalous_outcome s = String.length s > 0 && s.[0] = 'A'

let explore_make ~cfg ~first prog () =
    let ctx =
      {
        col = create_collector ~nthreads:(Prog.nthreads prog + 1);
        prog;
        level = check_level cfg;
        cells = None;
        roots = None;
        clobbered = None;
      }
    in
    ctx.col.mv <- cfg.Config.versioning = Config.Mvcc;
    Trace.set_sink ~level:Trace.Debug (Some (on_event ctx.col));
    {
      Stm_litmus.Explorer.main = main ctx;
      observe =
        (fun () ->
          match ctx.col.final with
          | None -> "inconclusive"
          | Some _ ->
              let h = finalize_history ctx.col in
              let v =
                match ctx.clobbered with
                | Some a -> History.Anomalous a
                | None -> History.check_at ctx.level prog h
              in
              (match v with
              | History.Anomalous _ when !first = None -> first := Some v
              | _ -> ());
              (* Prefix encodes the class so [stop_when] needs no parse. *)
              (match v with
              | History.Anomalous _ -> "A:"
              | History.Serializable -> "S:"
              | History.Inconclusive _ -> "I:")
              ^ Stm_obs.Json.to_string (History.verdict_to_json v));
  }

let explore ?preemption_bound ?max_runs ?(max_steps = 60_000) ~cfg prog =
  let first = ref None in
  let make = explore_make ~cfg ~first prog in
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let exploration =
        Stm_litmus.Explorer.explore ?preemption_bound ?max_runs ~max_steps
          ~stop_when:anomalous_outcome ~cfg ~make ()
      in
      (!first, exploration))

let explore_dpor ?preemption_bound ?max_runs ?(max_steps = 60_000) ~cfg prog =
  let first = ref None in
  let make = explore_make ~cfg ~first prog in
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () ->
      let d =
        Stm_litmus.Explorer.explore_dpor ?preemption_bound ?max_runs ~max_steps
          ~stop_when:anomalous_outcome ~cfg ~make ()
      in
      (!first, d))
