(* Host-side counters: exact allocation, GC collections, peak heap, and
   GC busy time from the runtime's own event ring. *)

(* Words allocated by this domain so far: everything allocated on the
   minor heap plus what was allocated directly on the major heap. On
   OCaml 5.1 neither [Gc.allocated_bytes] nor the minor figure of
   [Gc.counters] is exact (both can be off by a whole minor heap);
   [Gc.minor_words] is, and [Gc.counters]'s major words minus its
   promoted words is exactly the direct major allocation. *)
let words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. (major -. promoted)

(* What one [words ()] reading itself allocates (its result tuple and
   boxed floats), measured rather than assumed. *)
let overhead =
  lazy
    (let a = words () in
     let b = words () in
     b -. a)

let measure_words f =
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  (r, w1 -. w0 -. Lazy.force overhead)

type gc = { minor : int; major : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* GC busy time from Runtime_events. Only the traced run starts the
   ring, and it drains it between units so that it never wraps: a lost
   event would make the busy time a lower bound, so losses are counted
   and reported. Only outermost phases are summed, so nested phases are
   not counted twice; domain waits are not GC work. *)
module Busy = struct
  type st = {
    mutable depth : int;
    mutable since : int;
    mutable busy_ns : int;
    mutable lost : int;
    mutable intervals : (string * int * int) list;
  }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    st : st;
  }

  let idle = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT
    | Runtime_events.EV_DOMAIN_RESIZE_HEAP_RESERVATION ->
        true
    | _ -> false

  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

  let start () =
    Runtime_events.start ();
    let st = { depth = 0; since = 0; busy_ns = 0; lost = 0; intervals = [] } in
    let runtime_begin _ ts ph =
      if not (idle ph) then begin
        if st.depth = 0 then st.since <- ns ts;
        st.depth <- st.depth + 1
      end
    in
    let runtime_end _ ts ph =
      if (not (idle ph)) && st.depth > 0 then begin
        st.depth <- st.depth - 1;
        if st.depth = 0 then begin
          st.busy_ns <- st.busy_ns + (ns ts - st.since);
          st.intervals <-
            (Runtime_events.runtime_phase_name ph, st.since, ns ts) :: st.intervals
        end
      end
    in
    let lost_events _ n = st.lost <- st.lost + n in
    let callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
    in
    { cursor = Runtime_events.create_cursor None; callbacks; st }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  (* Drain what happened so far and start counting from here. *)
  let reset t =
    poll t;
    t.st.busy_ns <- 0;
    t.st.lost <- 0;
    t.st.intervals <- []
end
