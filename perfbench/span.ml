(* Host-time spans recorded from the benchmark's own calls into the
   libraries. Off by default: [with_] then costs one branch. When on,
   spans are kept in memory and exported once, at exit. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  unit_id : int;  (** index of the unit the span belongs to, -1 outside *)
  t0 : int;  (** monotonic ns *)
  mutable t1 : int;
}

let on = ref false
let current_unit = ref (-1)
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let with_ name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; unit_id = !current_unit; t0 = now (); t1 = 0 } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let all () = List.rev !recorded
let dur s = s.t1 - s.t0

(* Total and self time per span name, in seconds. A span's self time is
   its duration minus the time its direct children cover; spans nest
   strictly because the benchmark runs on one domain. *)
let by_name spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
      let tot, slf =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (tot + dur s, slf + self))
    spans;
  fun name ->
    let tot, slf = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
    (secs tot, secs slf)

(* Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
   Host spans go on track 1; [extra] intervals (GC phases read from
   Runtime_events, on the same monotonic clock) on track 2. *)
let write_chrome path ~extra spans =
  let oc = open_out path in
  let us ns = float_of_int ns /. 1e3 in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  output_string oc
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"benchmark calls\"}},\n\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"gc (runtime_events)\"}}";
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"unit\":%d}}"
        s.name (us s.t0) (us (dur s)) s.id s.parent s.unit_id)
    spans;
  List.iter
    (fun (name, t0, t1) ->
      Printf.fprintf oc
        ",\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":%.3f,\"dur\":%.3f}"
        name (us t0) (us (t1 - t0)))
    extra;
  output_string oc "\n]}\n";
  close_out oc
