(** HDF5-style hyperslab selections.

    A hyperslab selects a regular pattern of blocks from an index space,
    described per dimension by [start], [stride], [count] and [block] —
    exactly the H5Sselect_hyperslab parameterization.  The benchmark
    programs (§V-A) describe their data accesses as lists of hyperslabs;
    everything else — index enumeration for the debloat test, real reads
    for the audit-overhead experiment, AFL pseudo-branches — derives from
    that single description. *)

type t = {
  start : int array;
  stride : int array;  (** distance between block origins; [>= 1] each *)
  count : int array;   (** number of blocks along each dim; [>= 1] each *)
  block : int array;   (** block extent along each dim; [>= 1] each *)
}

val make : start:int array -> ?stride:int array -> ?count:int array -> ?block:int array -> unit -> t
(** Defaults: stride 1, count 1, block 1 along every dimension (a single
    element at [start]).  All four arrays must share [start]'s rank. *)

val point : int array -> t
(** Single-element selection. *)

val block_at : int array -> int array -> t
(** [block_at start extent] selects one dense block. *)

val rank : t -> int

val nelems : t -> int
(** Selected element count, ignoring bounds clipping. *)

val iter : ?clip:Shape.t -> t -> (int array -> unit) -> unit
(** Visit selected indices in row-major-ish order.  With [~clip], indices
    outside the shape are skipped (HDF5 would error; the benchmark
    programs clip explicitly, so the model does too).  The callback
    buffer is reused. *)

val iter_runs : clip:Shape.t -> t -> (int -> int -> unit) -> unit
(** [iter_runs ~clip t f] walks the selection clipped to [clip] as
    row-major linear runs: [f start len] covers the [len >= 1] elements
    from linear index [start] of [clip] along the last dimension.  The
    runs' union is exactly the set {!iter} [~clip] visits, in the same
    row order.  Within a row the runs are disjoint and increasing (blocks
    with [stride <= block] merge into one run); a row may repeat when
    blocks overlap along an outer dimension.  Nothing is visited when the
    ranks differ. *)

val mem : t -> int array -> bool
(** Does the selection contain this index (ignoring clipping)? *)

val bbox : t -> (int array * int array)
(** Inclusive lower/upper index corners of the selection. *)

val to_string : t -> string
