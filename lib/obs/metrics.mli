(** Event-derived run metrics with snapshot/diff.

    A {!t} consumes {!Stm_core.Trace} events (an [Info]-level sink
    suffices) and accumulates transaction lifecycle counters, per-cause
    abort counts, and commit/abort latency histograms on the simulated
    cost clock. {!snapshot} and {!diff} scope the metrics to any window
    of a run — e.g. per benchmark iteration. *)

open Stm_core

type t

val create : unit -> t

val handle : t -> Trace.event -> unit
(** The sink function; compose with other consumers or use {!install}. *)

val install : ?level:Trace.level -> t -> unit
(** Install as the global trace sink. Default level [Info] — metrics
    need no per-access events, so the [Debug] payloads stay unforced.
    This deliberately differs from {!Recorder.install}'s [Debug]
    default: installing a metrics sink keeps the access fast paths
    cheap, installing a recorder captures everything. A sink that feeds
    both (as [stm_run --diag] does) must be installed at [Debug] and
    filter Info events to the metrics side itself. *)

val snapshot : t -> t
(** Immutable copy of the current totals. *)

val diff : t -> t -> t
(** [diff later earlier]: the activity between two snapshots. *)

val begins : t -> int
val commits : t -> int
val aborts : t -> int
val abort_cause_count : t -> Trace.abort_cause -> int

val fairness : t -> Stm_cm.Fairness.t
(** Per-thread commit/abort accounting derived from the [tid] fields of
    the lifecycle events (Jain index, consecutive-abort streaks, wasted
    cycles). *)

(** Every abort cause, in serialization order. *)
val all_causes : Trace.abort_cause list
val commit_latency : t -> Hist.t
val abort_latency : t -> Hist.t

val to_assoc : t -> (string * int) list

val host_words : unit -> float
(** Words this domain has allocated so far, minor and direct-major
    alike. Exact, unlike [Gc.allocated_bytes], which on OCaml 5.1 can be
    off by a whole minor heap. *)

val host_alloc_words : t -> float
(** Host-process (OCaml GC) words allocated over this object's window:
    creation to now for a live object, creation to {!snapshot} for a
    snapshot, between the two snapshots for a {!diff}. A real-resource
    counterpart to the simulated counters — the perf harness reports the
    same quantity per benchmark op. *)

val to_json : ?stats:Stats.t -> t -> Json.t
(** Full metrics object: counters, abort causes, latency histograms, a
    ["fairness"] block (Jain index, worst consecutive-abort streak,
    per-thread counters), and ["host_alloc_words"] ({!host_alloc_words});
    [stats] additionally embeds the run's global {!Stm_core.Stats}. *)

val pp : Format.formatter -> t -> unit
