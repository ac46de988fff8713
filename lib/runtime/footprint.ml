(* Shared-access trace sink for the DPOR explorer.

   The runtime and STM layers call [read]/[write] at every access to
   state that is visible to more than one simulated thread. When no sink
   is installed (the common case: benchmarks, the enumerative explorer,
   production runs) the calls are a single ref dereference and a branch.
   The explorer installs a sink per run and aggregates the accesses of
   each scheduler segment into a footprint, from which it derives the
   happens-before relation and its race-directed backtrack points.

   Real heap objects report their non-negative [oid]. Runtime-internal
   shared state (counters, clocks, registries) is mapped onto reserved
   negative pseudo-oids so that it participates in the same conflict
   relation without colliding with the heap (or with [Heap.dummy]'s
   oid [-1]). *)

type kind = Spin_read | Read | Write

let sink : (int -> kind -> unit) option ref = ref None

let set_sink s =
  (match (s, !sink) with
  | Some _, Some _ ->
      invalid_arg "Footprint.set_sink: a sink is already installed"
  | _ -> ());
  sink := s

let[@inline] read oid =
  match !sink with None -> () | Some f -> f oid Read

let[@inline] write oid =
  match !sink with None -> () | Some f -> f oid Write

let[@inline] spin_read oid =
  match !sink with None -> () | Some f -> f oid Spin_read

let[@inline] active () = !sink <> None

(* Pseudo-oids for runtime-internal shared state. *)

let oid_alloc = -2 (* heap object-id counter: allocation order *)
let oid_txid = -3 (* transaction-id counter *)
let oid_gvc = -4 (* global version clock *)
let oid_quiesce = -5 (* quiescence epochs, tickets, consistency points *)
let oid_mvcc = -6 (* snapshot registry and installer ring *)
let oid_cm = -7 (* stateful contention-manager policy state *)

(* Per-transaction wound flag (and its registry slot). Distinct per
   txid so that unrelated transactions' begin/check traffic does not
   conflict. *)
let flag_oid txid = -(1 lsl 24) - txid

(* Per-mutex lock word. Mutex ids are assigned deterministically per
   run ({!Sim_mutex.reset_ids}). *)
let mutex_oid id = -(1 lsl 20) - id
