open Stm_runtime

(* One slot per simulated thread. Green threads switch only at yields, so
   a per-tid slot written at access dispatch and read inside the barrier
   attributes correctly even if the barrier's internal yields interleave
   other threads' accesses. *)
let slots : int Int_tbl.t = Int_tbl.create 64

let tid () = if Sched.running () then Sched.self () else 0

let set site = Int_tbl.replace slots (tid ()) site

let clear () = Int_tbl.replace slots (tid ()) (-1)

let current () =
  match Int_tbl.find_opt slots (tid ()) with Some s -> s | None -> -1

let reset () = Int_tbl.reset slots
