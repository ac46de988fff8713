(** Hash tables keyed by [int], for the STM's per-conflict and
    per-access bookkeeping (ownership, undo and write-buffer indexes,
    transaction registries, contention-manager slots).

    A functorised [Hashtbl] over [int]: a lookup hashes and compares
    inline instead of calling the polymorphic [caml_hash] and [compare]
    primitives. The hash mixes the high bits into the low ones, so keys
    that differ only above the bucket mask — packed (oid, granule) keys
    are [oid lsl 26 lor base] — still spread over the buckets.

    Iteration order differs from the polymorphic table's: callers must
    not depend on it. *)

include Hashtbl.S with type key = int
