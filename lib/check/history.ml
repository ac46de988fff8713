(* Serializability oracle.

   An execution history is a list of committed nodes - transactions and
   single non-transactional accesses - each carrying its read set, write
   set and a serialization stamp taken at the node's linearization point
   (see Trace.Txn_serialized). Because every write in a fuzz program
   stores an occurrence-unique token, the reads-from relation is exact:
   the token of an observed value names the (committed) write that
   produced it, or convicts the execution of reading doomed data.

   Two independent checks:

   - [check_graph]: build the conflict graph (wr, ww, rw edges from the
     per-location version order, plus program-order edges) and demand
     acyclicity; also demand that every location's final value is its
     last committed version.

   - [differential]: replay the committed nodes, in stamp order, against
     a sequential reference interpreter of the original program, and
     diff the resulting heap against the observed final state.

   [check] demands serializability (both checks). [check_si] certifies
   the weaker snapshot-isolation contract instead: reads must name
   committed versions (no dirty reads), each transaction's reads of a
   location must agree (no fractured reads - every transaction saw
   *some* atomic snapshot per location), a read-modify-write must write
   the version directly after the one it read (no lost updates - the
   first-committer-wins certificate), and the final state must be the
   last committed version per location. It deliberately runs no
   dependency-graph or sequential-replay check: write skew and long
   fork produce rw-cycles and have no sequential replay, yet are
   admitted under snapshot isolation. *)

type box_id = Slot_box of int | New_box of { thread : int; step : int }

type loc = Cell of int | Root of int | Box_field of box_id

type value = Vi of int | Vr of box_id

type part = Body | Pub_init | Priv_write | Priv_read

type tag = { thread : int; step : int; part : part }

type node = {
  id : int;  (* dense, ascending with stamp *)
  tid : int;  (* logical thread index *)
  txn : bool;
  stamp : int;
  tag : tag option;
  reads : (loc * value) list;  (* in program order, duplicates kept *)
  writes : (loc * value) list;  (* last write per location *)
}

type history = {
  init : (loc * value) list;
  nodes : node list;  (* ascending stamp *)
  final : (loc * value) list;
}

type edge_kind = Wr | Ww | Rw | Po

type edge = { src : int; dst : int; kind : edge_kind; eloc : loc option }

type anomaly =
  | Cycle of edge list
  | Dirty_read of { node : int; rloc : loc; seen : value }
  | Final_mismatch of { floc : loc; expected : value option; actual : value option }
  | Divergence of { dloc : loc; replayed : value option; actual : value option }
  | Control_divergence of { thread : int; step : int; detail : string }
  | Private_clobbered of { thread : int; step : int; expected : int; seen : value }
  | Exec_failure of string
  | Lost_update of { node : int; uloc : loc; read_idx : int; write_idx : int }
      (* the node read version [read_idx] of the location but installed
         version [write_idx] <> read_idx + 1: a concurrent committed
         write was overwritten (first-committer-wins forbids this) *)
  | Fractured_read of { node : int; floc : loc; first : value; second : value }
      (* one transaction observed two different committed versions of
         the same location: no single snapshot contains both *)

type verdict = Serializable | Inconclusive of string | Anomalous of anomaly

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let box_to_string = function
  | Slot_box s -> Printf.sprintf "b%d" s
  | New_box { thread; step } -> Printf.sprintf "n%d.%d" thread step

let loc_to_string = function
  | Cell i -> Printf.sprintf "c%d" i
  | Root s -> Printf.sprintf "s%d" s
  | Box_field b -> box_to_string b ^ ".f"

let value_to_string = function
  | Vr b -> "&" ^ box_to_string b
  | Vi n ->
      if n >= Prog.token_scale then
        Printf.sprintf "%d:%d" (n / Prog.token_scale) (n mod Prog.token_scale)
      else string_of_int n

let pp_loc ppf l = Fmt.string ppf (loc_to_string l)
let pp_value ppf v = Fmt.string ppf (value_to_string v)

let part_to_string = function
  | Body -> "body"
  | Pub_init -> "pub-init"
  | Priv_write -> "priv-write"
  | Priv_read -> "priv-read"

let pp_tag ppf t = Fmt.pf ppf "T%d.%d/%s" t.thread t.step (part_to_string t.part)

let pp_node ppf n =
  Fmt.pf ppf "#%d %s tid=%d stamp=%d%a R[%a] W[%a]" n.id
    (if n.txn then "txn" else "acc")
    n.tid n.stamp
    (Fmt.option (fun ppf t -> Fmt.pf ppf " %a" pp_tag t))
    n.tag
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    n.reads
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    n.writes

let pp_history ppf h =
  Fmt.pf ppf "init: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    h.init;
  List.iter (fun n -> Fmt.pf ppf "  %a@." pp_node n) h.nodes;
  Fmt.pf ppf "final: %a@."
    Fmt.(list ~sep:comma (pair ~sep:(any "=") pp_loc pp_value))
    h.final

let kind_to_string = function Wr -> "wr" | Ww -> "ww" | Rw -> "rw" | Po -> "po"

let pp_edge ppf e =
  Fmt.pf ppf "#%d -%s%a-> #%d" e.src (kind_to_string e.kind)
    (Fmt.option (fun ppf l -> Fmt.pf ppf "(%a)" pp_loc l))
    e.eloc e.dst

let pp_anomaly ppf = function
  | Cycle edges ->
      Fmt.pf ppf "dependency cycle: %a" Fmt.(list ~sep:(any " ") pp_edge) edges
  | Dirty_read { node; rloc; seen } ->
      Fmt.pf ppf "dirty read: node #%d read %a = %a (no committed writer)" node
        pp_loc rloc pp_value seen
  | Final_mismatch { floc; expected; actual } ->
      Fmt.pf ppf "final state mismatch at %a: last committed version %a, heap has %a"
        pp_loc floc
        Fmt.(option ~none:(any "<none>") pp_value)
        expected
        Fmt.(option ~none:(any "<none>") pp_value)
        actual
  | Divergence { dloc; replayed; actual } ->
      Fmt.pf ppf "differential divergence at %a: sequential replay %a, heap has %a"
        pp_loc dloc
        Fmt.(option ~none:(any "<none>") pp_value)
        replayed
        Fmt.(option ~none:(any "<none>") pp_value)
        actual
  | Control_divergence { thread; step; detail } ->
      Fmt.pf ppf "control divergence at T%d.%d: %s" thread step detail
  | Private_clobbered { thread; step; expected; seen } ->
      Fmt.pf ppf
        "privatized object clobbered at T%d.%d: wrote %s non-transactionally, read back %a"
        thread step
        (value_to_string (Vi expected))
        pp_value seen
  | Exec_failure msg -> Fmt.pf ppf "execution failure: %s" msg
  | Lost_update { node; uloc; read_idx; write_idx } ->
      Fmt.pf ppf
        "lost update: node #%d read version %d of %a but installed version %d \
         (a concurrent commit was overwritten)"
        node read_idx pp_loc uloc write_idx
  | Fractured_read { node; floc; first; second } ->
      Fmt.pf ppf "fractured read: node #%d read %a = %a and later %a" node
        pp_loc floc pp_value first pp_value second

let pp_verdict ppf = function
  | Serializable -> Fmt.string ppf "serializable"
  | Inconclusive msg -> Fmt.pf ppf "inconclusive (%s)" msg
  | Anomalous a -> Fmt.pf ppf "ANOMALY: %a" pp_anomaly a

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

open Stm_obs

(* The full match doubles as a compile-time exhaustiveness guard: a new
   anomaly constructor must be given a kind string here (and the
   [test_check] classifier test forces the strings to stay distinct). *)
let anomaly_kind = function
  | Cycle _ -> "cycle"
  | Dirty_read _ -> "dirty-read"
  | Final_mismatch _ -> "final-mismatch"
  | Divergence _ -> "divergence"
  | Control_divergence _ -> "control-divergence"
  | Private_clobbered _ -> "private-clobbered"
  | Exec_failure _ -> "exec-failure"
  | Lost_update _ -> "lost-update"
  | Fractured_read _ -> "fractured-read"

let all_anomaly_kinds =
  [
    "cycle";
    "dirty-read";
    "final-mismatch";
    "divergence";
    "control-divergence";
    "private-clobbered";
    "exec-failure";
    "lost-update";
    "fractured-read";
  ]

(* Which anomalies the snapshot-isolation contract still forbids: a
   history whose only defects are admitted kinds is SI-consistent. *)
let si_forbids = function
  | Dirty_read _ | Final_mismatch _ | Lost_update _ | Fractured_read _
  | Private_clobbered _ | Exec_failure _ ->
      true
  | Cycle _ | Divergence _ | Control_divergence _ -> false

let value_to_json = function
  | Vi n -> Json.Int n
  | Vr b -> Json.Str ("&" ^ box_to_string b)

let opt_value_to_json = function None -> Json.Null | Some v -> value_to_json v

let edge_to_json e =
  Json.Obj
    [
      ("src", Json.Int e.src);
      ("dst", Json.Int e.dst);
      ("kind", Json.Str (kind_to_string e.kind));
      ( "loc",
        match e.eloc with None -> Json.Null | Some l -> Json.Str (loc_to_string l)
      );
    ]

let anomaly_to_json = function
  | Cycle edges ->
      Json.Obj
        [ ("anomaly", Json.Str "cycle"); ("edges", Json.List (List.map edge_to_json edges)) ]
  | Dirty_read { node; rloc; seen } ->
      Json.Obj
        [
          ("anomaly", Json.Str "dirty-read");
          ("node", Json.Int node);
          ("loc", Json.Str (loc_to_string rloc));
          ("seen", value_to_json seen);
        ]
  | Final_mismatch { floc; expected; actual } ->
      Json.Obj
        [
          ("anomaly", Json.Str "final-mismatch");
          ("loc", Json.Str (loc_to_string floc));
          ("expected", opt_value_to_json expected);
          ("actual", opt_value_to_json actual);
        ]
  | Divergence { dloc; replayed; actual } ->
      Json.Obj
        [
          ("anomaly", Json.Str "divergence");
          ("loc", Json.Str (loc_to_string dloc));
          ("replayed", opt_value_to_json replayed);
          ("actual", opt_value_to_json actual);
        ]
  | Control_divergence { thread; step; detail } ->
      Json.Obj
        [
          ("anomaly", Json.Str "control-divergence");
          ("thread", Json.Int thread);
          ("step", Json.Int step);
          ("detail", Json.Str detail);
        ]
  | Private_clobbered { thread; step; expected; seen } ->
      Json.Obj
        [
          ("anomaly", Json.Str "private-clobbered");
          ("thread", Json.Int thread);
          ("step", Json.Int step);
          ("expected", Json.Int expected);
          ("seen", value_to_json seen);
        ]
  | Exec_failure msg ->
      Json.Obj [ ("anomaly", Json.Str "exec-failure"); ("detail", Json.Str msg) ]
  | Lost_update { node; uloc; read_idx; write_idx } ->
      Json.Obj
        [
          ("anomaly", Json.Str "lost-update");
          ("node", Json.Int node);
          ("loc", Json.Str (loc_to_string uloc));
          ("read_idx", Json.Int read_idx);
          ("write_idx", Json.Int write_idx);
        ]
  | Fractured_read { node; floc; first; second } ->
      Json.Obj
        [
          ("anomaly", Json.Str "fractured-read");
          ("node", Json.Int node);
          ("loc", Json.Str (loc_to_string floc));
          ("first", value_to_json first);
          ("second", value_to_json second);
        ]

let verdict_to_json = function
  | Serializable -> Json.Obj [ ("verdict", Json.Str "serializable") ]
  | Inconclusive msg ->
      Json.Obj [ ("verdict", Json.Str "inconclusive"); ("detail", Json.Str msg) ]
  | Anomalous a ->
      Json.Obj [ ("verdict", Json.Str "anomalous"); ("detail", anomaly_to_json a) ]

let verdict_equal a b =
  Json.to_string (verdict_to_json a) = Json.to_string (verdict_to_json b)

let is_anomalous = function Anomalous _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-location index                                                  *)
(* ------------------------------------------------------------------ *)

let box_equal a b =
  match (a, b) with
  | Slot_box x, Slot_box y -> x = y
  | New_box a, New_box b -> a.thread = b.thread && a.step = b.step
  | (Slot_box _ | New_box _), _ -> false

let loc_equal a b =
  match (a, b) with
  | Cell x, Cell y | Root x, Root y -> x = y
  | Box_field x, Box_field y -> box_equal x y
  | (Cell _ | Root _ | Box_field _), _ -> false

let value_equal a b =
  match (a, b) with
  | Vi x, Vi y -> x = y
  | Vr x, Vr y -> box_equal x y
  | (Vi _ | Vr _), _ -> false

(* One location of a history, with everything the checks keep per
   location. *)
type slot = {
  sloc : loc;
  mutable nwrites : int;  (* committed writes of the location *)
  mutable init : value option;  (* first binding in [init] *)
  mutable writer : int array;
  mutable value : value array;
      (* the versions in order, as writer node and value: the initial
         value (writer -1) when the location has one, then the committed
         writes by stamp *)
  mutable final : value option;  (* first binding in [final] *)
  mutable heap : value option;  (* differential replay's current value *)
  mutable seen : value;  (* SI: first value [seen_by] read here *)
  mutable seen_by : int;
}

(* Dense location ids in first-interned order. Cells, roots and slot
   boxes - all but the boxes a history publishes - are found through
   arrays indexed by their number; the rest by a scan with a monomorphic
   equality. No hashing, and no (loc, value) key per read. *)
type index = {
  mutable slots : slot array;
  mutable nslots : int;
  mutable cells : int array;  (* Cell i -> slot id, -1 when absent *)
  mutable roots : int array;  (* Root s -> slot id *)
  mutable boxes : int array;  (* Box_field (Slot_box s) -> slot id *)
}

let new_index () =
  { slots = [||]; nslots = 0; cells = [||]; roots = [||]; boxes = [||] }

let rec scan ix l i =
  if i >= ix.nslots then -1
  else if loc_equal ix.slots.(i).sloc l then i
  else scan ix l (i + 1)

(* A numbered location absent from its array is absent from the index:
   [intern] registers every non-negative number. *)
let lookup ix tbl i l =
  if i < 0 then scan ix l 0 else if i < Array.length tbl then tbl.(i) else -1

let find ix l =
  match l with
  | Cell i -> lookup ix ix.cells i l
  | Root i -> lookup ix ix.roots i l
  | Box_field (Slot_box i) -> lookup ix ix.boxes i l
  | Box_field (New_box _) -> scan ix l 0

let register tbl i id =
  let tbl =
    if i < Array.length tbl then tbl
    else begin
      let a = Array.make (max (i + 1) (2 * Array.length tbl)) (-1) in
      Array.blit tbl 0 a 0 (Array.length tbl);
      a
    end
  in
  tbl.(i) <- id;
  tbl

(* The id of [l], added when absent. *)
let intern ix l =
  let i = find ix l in
  if i >= 0 then i
  else begin
    let s =
      {
        sloc = l;
        nwrites = 0;
        init = None;
        writer = [||];
        value = [||];
        final = None;
        heap = None;
        seen = Vi 0;
        seen_by = -1;
      }
    in
    let id = ix.nslots in
    if id = Array.length ix.slots then begin
      let a = Array.make (max 8 (2 * id)) s in
      Array.blit ix.slots 0 a 0 id;
      ix.slots <- a
    end;
    ix.slots.(id) <- s;
    ix.nslots <- id + 1;
    (match l with
    | Cell i when i >= 0 -> ix.cells <- register ix.cells i id
    | Root i when i >= 0 -> ix.roots <- register ix.roots i id
    | Box_field (Slot_box i) when i >= 0 -> ix.boxes <- register ix.boxes i id
    | Cell _ | Root _ | Box_field _ -> ());
    id
  end

(* ------------------------------------------------------------------ *)
(* Conflict-graph check                                                *)
(* ------------------------------------------------------------------ *)

exception Found of anomaly

(* Put a location's committed writes, held in insertion order (node
   order, then each node's write order) after [k0] initial entries,
   into version order: by stamp, and newest insertion first among equal
   stamps, as the stable sort of a newest-first list ordered them. A
   history serialized in node order is already sorted. *)
let sort_writes (nodes : node array) s k0 =
  let stamp k = nodes.(s.writer.(k)).stamp in
  let m = Array.length s.writer in
  let rec sorted k = k + 1 >= m || (stamp k < stamp (k + 1) && sorted (k + 1)) in
  if not (sorted k0) then begin
    let newest_first = ref [] in
    for k = k0 to m - 1 do
      newest_first := (stamp k, s.writer.(k), s.value.(k)) :: !newest_first
    done;
    List.iteri
      (fun j (_, w, v) ->
        s.writer.(k0 + j) <- w;
        s.value.(k0 + j) <- v)
      (List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !newest_first)
  end

(* Version order per location: committed writes sorted by stamp, preceded
   by the initial value when the location has one. Writer id -1 stands
   for "initial state". Written locations are interned first, in
   first-write order, then the initial-only ones in [init] order - the
   insertion order {!table_order} relies on. *)
let build_index (h : history) nodes =
  let ix = new_index () in
  Array.iter
    (fun nd ->
      List.iter
        (fun (l, _) ->
          let s = ix.slots.(intern ix l) in
          s.nwrites <- s.nwrites + 1)
        nd.writes)
    nodes;
  List.iter
    (fun (l, v) ->
      let s = ix.slots.(intern ix l) in
      match s.init with None -> s.init <- Some v | Some _ -> ())
    h.init;
  let fill = Array.make ix.nslots 0 in
  for i = 0 to ix.nslots - 1 do
    let s = ix.slots.(i) in
    let k0, iv = match s.init with Some iv -> (1, iv) | None -> (0, Vi 0) in
    s.writer <- Array.make (k0 + s.nwrites) (-1);
    s.value <- Array.make (k0 + s.nwrites) iv;
    fill.(i) <- k0
  done;
  Array.iter
    (fun nd ->
      List.iter
        (fun (l, v) ->
          let i = find ix l in
          let s = ix.slots.(i) in
          s.writer.(fill.(i)) <- nd.id;
          s.value.(fill.(i)) <- v;
          fill.(i) <- fill.(i) + 1)
        nd.writes)
    nodes;
  for i = 0 to ix.nslots - 1 do
    let s = ix.slots.(i) in
    if s.nwrites > 1 then sort_writes nodes s (Array.length s.writer - s.nwrites)
  done;
  List.iter
    (fun (l, v) ->
      let i = find ix l in
      if i >= 0 then
        let s = ix.slots.(i) in
        match s.final with None -> s.final <- Some v | Some _ -> ())
    h.final;
  ix

(* The version index of [v] at [s]: values are unique per location
   because tokens are unique per static occurrence and each occurrence
   commits at most once. Should a value repeat anyway, the last index
   wins, the rule recorded verdicts were produced under. *)
let rec version_at vs v i =
  if i < 0 || value_equal vs.(i) v then i else version_at vs v (i - 1)

let version_of s v = version_at s.value v (Array.length s.value - 1)

(* Which anomaly gets reported - the first final mismatch, the cycle the
   DFS finds first - depends on the order locations are visited in, and
   recorded repros and verdicts pin it: it is the iteration order of a
   [(loc, _) Hashtbl.t] created at size 64 and filled in the order
   [build_index] interns, the structure the checks were first written
   over. It is recomputed here only when there is something to report.
   An unseeded [Hashtbl] iterates bucket by bucket ([hash land (buckets
   - 1)], buckets doubling from 64 while the table holds more than twice
   as many keys), and within a bucket newest insertion first - resizing
   preserves the order within a bucket. That locations-by-version table
   was itself filled by iterating a writes-by-location table that the
   writes had been inserted into in first-write order. *)
let table_order ix =
  let n = ix.nslots in
  let hash = Array.init n (fun i -> Hashtbl.hash ix.slots.(i).sloc) in
  let buckets m =
    let rec go b = if m > 2 * b then go (2 * b) else b in
    go 64
  in
  (* ids of [n] keys inserted in [ins] order, in iteration order *)
  let iteration ids ins =
    let mask = buckets (Array.length ids) - 1 in
    let key i = ((hash.(i) land mask) lsl 32) - ins.(i) in
    Array.stable_sort (fun a b -> Int.compare (key a) (key b)) ids;
    ids
  in
  let nwritten =
    let rec go i = if i < n && ix.slots.(i).nwrites > 0 then go (i + 1) else i in
    go 0
  in
  let by_write = iteration (Array.init nwritten Fun.id) (Array.init n Fun.id) in
  let ins = Array.init n Fun.id in
  Array.iteri (fun pos id -> ins.(id) <- pos) by_write;
  iteration (Array.init n Fun.id) ins

let last_version s = s.value.(Array.length s.value - 1)

(* A location not snapshotted has nothing to check. *)
let final_mismatch s =
  match s.final with
  | Some actual -> not (value_equal actual (last_version s))
  | None -> false

(* Final state: every snapshotted location must hold its last committed
   version (shared by the serializable and snapshot-isolation checks).
   Raises [Found]. *)
let check_final ix =
  let rec any i = i < ix.nslots && (final_mismatch ix.slots.(i) || any (i + 1)) in
  if any 0 then
    Array.iter
      (fun i ->
        let s = ix.slots.(i) in
        if final_mismatch s then
          raise
            (Found
               (Final_mismatch
                  { floc = s.sloc; expected = Some (last_version s); actual = s.final })))
      (table_order ix)

(* The first cycle a DFS from each node in id order finds. Out-edges are
   followed newest-added first, in the order the check has always added
   them: ww between consecutive versions (locations in table order), wr
   and rw from each observed read, then program order; self-edges and
   edges to or from the initial state are dropped. Colors: 0 white, 1
   gray, 2 black. *)
let find_cycle ix nodes =
  let n = Array.length nodes in
  let adj = Array.make n [] in
  let add src dst kind eloc =
    if src <> dst && src >= 0 && dst >= 0 then
      adj.(src) <- { src; dst; kind; eloc } :: adj.(src)
  in
  Array.iter
    (fun i ->
      let s = ix.slots.(i) in
      let w = s.writer in
      for k = 0 to Array.length w - 2 do
        add w.(k) w.(k + 1) Ww (Some s.sloc)
      done)
    (table_order ix);
  Array.iter
    (fun nd ->
      List.iter
        (fun (l, v) ->
          let s = ix.slots.(find ix l) in
          let i = version_of s v in
          let w = s.writer in
          add w.(i) nd.id Wr (Some l);
          if i + 1 < Array.length w then add nd.id w.(i + 1) Rw (Some l))
        nd.reads)
    nodes;
  let lo = Array.fold_left (fun m nd -> min m nd.tid) max_int nodes in
  let hi = Array.fold_left (fun m nd -> max m nd.tid) min_int nodes in
  let last_of_tid = Array.make (max 0 (hi - lo + 1)) (-1) in
  Array.iter
    (fun nd ->
      let prev = last_of_tid.(nd.tid - lo) in
      if prev >= 0 then add prev nd.id Po None;
      last_of_tid.(nd.tid - lo) <- nd.id)
    nodes;
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
  try
    for v = 0 to n - 1 do
      if color.(v) = 0 then dfs [] v
    done;
    None
  with Found a -> Some a

(* Nodes are numbered in stamp order, and a history that serializes in
   that order has only forward edges (src < dst): id order is then a
   topological order, and the graph is acyclic without being built.
   Program-order edges always point forward. Only a backward wr, rw or
   ww edge calls for the DFS, which also fixes the reported cycle.
   Raises [Found] on a dirty read or a final mismatch, in that
   priority. *)
let graph ix nodes =
  let backward = ref false in
  for n = 0 to Array.length nodes - 1 do
    List.iter
      (fun (l, v) ->
        let s = find ix l in
        let i = if s < 0 then -1 else version_of ix.slots.(s) v in
        if i < 0 then raise (Found (Dirty_read { node = n; rloc = l; seen = v }));
        let w = ix.slots.(s).writer in
        (* wr: writer -> n; rw: n -> the next version's writer *)
        if w.(i) > n || (i + 1 < Array.length w && w.(i + 1) >= 0 && n > w.(i + 1))
        then backward := true)
      nodes.(n).reads
  done;
  check_final ix;
  for s = 0 to ix.nslots - 1 do
    let w = ix.slots.(s).writer in
    for k = 0 to Array.length w - 2 do
      if w.(k + 1) >= 0 && w.(k) > w.(k + 1) then backward := true
    done
  done;
  if !backward then find_cycle ix nodes else None

let nodes_of (h : history) =
  let nodes = Array.of_list h.nodes in
  Array.iteri (fun i nd -> assert (nd.id = i)) nodes;
  nodes

let check_graph (h : history) : anomaly option =
  let nodes = nodes_of h in
  try graph (build_index h nodes) nodes with Found a -> Some a

(* ------------------------------------------------------------------ *)
(* Differential replay                                                 *)
(* ------------------------------------------------------------------ *)

(* Replays the committed nodes in serialization order against a
   sequential reference interpreter of the program, then diffs the
   reference heap against the observed final state. Catches divergences
   the per-location graph check cannot see (e.g. wrong data payloads
   flowing through accumulators). *)

(* [ix] may already index the history's locations; the replay only
   uses (and adds) their [heap] values. *)
let replay ix (prog : Prog.t) (h : history) : anomaly option =
  let store l v = ix.slots.(intern ix l).heap <- Some v in
  List.iter (fun (l, v) -> store l v) h.init;
  let nthreads = Prog.nthreads prog in
  let accs = Array.make (max 1 nthreads) 0 in
  let priv = Array.make (max 1 nthreads) None in
  let as_int = function Vi n -> n | Vr _ -> 0 in
  let replayed l =
    let i = find ix l in
    if i < 0 then None else ix.slots.(i).heap
  in
  let load l = match replayed l with Some v -> v | None -> Vi 0 in
  let exception Diverged of anomaly in
  let apply_op thread step idx op =
    match (op : Prog.op) with
    | Prog.Read c -> accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Cell c)))
    | Prog.Write (c, e) ->
        let token = Prog.op_token ~thread ~step ~op:idx in
        store (Cell c) (Vi (Prog.value_of e ~token ~acc:accs.(thread)))
    | Prog.Box_read s -> (
        match load (Root s) with
        | Vr b -> accs.(thread) <- Prog.combine accs.(thread) (as_int (load (Box_field b)))
        | _ -> ())
    | Prog.Box_write s -> (
        match load (Root s) with
        | Vr b ->
            let token = Prog.op_token ~thread ~step ~op:idx in
            store (Box_field b) (Vi (Prog.value_of Prog.Tok_acc ~token ~acc:accs.(thread)))
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
        | Body, Some (Prog.Publish s) -> store (Root s) (Vr (New_box { thread; step }))
        | Pub_init, Some (Prog.Publish _) ->
            store
              (Box_field (New_box { thread; step }))
              (Vi (Prog.pub_token ~thread ~step * Prog.token_scale))
        | Body, Some (Prog.Privatize s) -> (
            match load (Root s) with
            | Vr b ->
                store (Root s) (Vi (Prog.tomb_token ~thread ~step * Prog.token_scale));
                priv.(thread) <- Some b
            | _ -> priv.(thread) <- None)
        | Priv_write, Some (Prog.Privatize _) -> (
            match priv.(thread) with
            | Some b ->
                store (Box_field b) (Vi (Prog.priv_token ~thread ~step * Prog.token_scale))
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
        let replayed = replayed l in
        let same =
          match replayed with
          | Some r -> value_equal r actual
          | None -> value_equal actual (Vi 0)
        in
        if not same then
          raise (Diverged (Divergence { dloc = l; replayed; actual = Some actual })))
      h.final;
    None
  with Diverged a -> Some a

(* ------------------------------------------------------------------ *)
(* Combined verdict                                                    *)
(* ------------------------------------------------------------------ *)

let differential prog h = replay (new_index ()) prog h

let check prog h =
  let nodes = nodes_of h in
  let ix = build_index h nodes in
  match graph ix nodes with
  | exception Found a -> Anomalous a
  | Some a -> Anomalous a
  | None -> ( match replay ix prog h with Some a -> Anomalous a | None -> Serializable)

(* ------------------------------------------------------------------ *)
(* Snapshot-isolation certification                                    *)
(* ------------------------------------------------------------------ *)

(* Certify the weaker contract: dirty reads, fractured reads, lost
   updates, and final-state mismatches are rejected; dependency cycles
   are not checked (write skew and long fork are admitted), and there is
   no sequential differential replay (an SI execution need not have
   one). Reads already exclude a node's own-write observations (see
   Exec.split_accs), so every recorded read names a foreign version.
   What a node has seen lives in the location's slot, stamped with the
   node's id, so no per-node table is built. *)
let check_si_graph (h : history) : anomaly option =
  let nodes = nodes_of h in
  let ix = build_index h nodes in
  try
    Array.iter
      (fun nd ->
        List.iter
          (fun (l, v) ->
            let i = find ix l in
            if i < 0 || version_of ix.slots.(i) v < 0 then
              raise (Found (Dirty_read { node = nd.id; rloc = l; seen = v }));
            let s = ix.slots.(i) in
            if s.seen_by <> nd.id then begin
              s.seen_by <- nd.id;
              s.seen <- v
            end
            else if not (value_equal s.seen v) then
              raise
                (Found
                   (Fractured_read { node = nd.id; floc = l; first = s.seen; second = v })))
          nd.reads;
        (* first-committer-wins certificate: a read-modify-write must
           install the version directly after the one it read *)
        List.iter
          (fun (l, wv) ->
            let i = find ix l in
            if i >= 0 && ix.slots.(i).seen_by = nd.id then begin
              let s = ix.slots.(i) in
              let j = version_of s wv in
              let r = version_of s s.seen in
              if j >= 0 && r >= 0 && j <> r + 1 then
                raise
                  (Found (Lost_update { node = nd.id; uloc = l; read_idx = r; write_idx = j }))
            end)
          nd.writes)
      nodes;
    check_final ix;
    None
  with Found a -> Some a

let check_si h =
  match check_si_graph h with Some a -> Anomalous a | None -> Serializable

let check_at (isolation : Stm_core.Config.isolation) prog h =
  match isolation with
  | Stm_core.Config.Serializable -> check prog h
  | Stm_core.Config.Snapshot -> check_si h

(* Certify a history at both levels: serializable; failing that,
   SI-consistent-but-not-serializable (the serializable anomaly is the
   witness - for write skew, the rw-cycle); failing both, anomalous with
   the SI-level defect. *)
type certification =
  | Cert_serializable
  | Cert_snapshot_only of anomaly  (* the serializability violation *)
  | Cert_anomalous of anomaly  (* violates snapshot isolation too *)

let certify prog h =
  match check prog h with
  | Serializable | Inconclusive _ -> Cert_serializable
  | Anomalous a -> (
      match check_si_graph h with
      | None -> Cert_snapshot_only a
      | Some si_a -> Cert_anomalous si_a)

let certification_to_string = function
  | Cert_serializable -> "serializable"
  | Cert_snapshot_only _ -> "snapshot-only"
  | Cert_anomalous _ -> "anomalous"
