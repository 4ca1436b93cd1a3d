(** Index subsets of one data array: the sets [I_v] and [I_Θ] of the paper.

    Backed by a {!Bitset} over the row-major linearization of the array's
    shape, so union / intersection / difference — the operations behind
    precision, recall and bloat-fraction — cost a popcount sweep. *)

type t

val create : Shape.t -> t
(** Empty subset of the given index space. *)

val shape : t -> Shape.t

val add : t -> int array -> unit
(** Out-of-bounds indices raise [Invalid_argument]. *)

val add_if_in_bounds : t -> int array -> bool
(** Returns whether the index was in bounds (and hence added). *)

val add_slab : ?clip:bool -> t -> Hyperslab.t -> unit
(** Add every index of a hyperslab selection; with [~clip:true] (default)
    out-of-bounds indices are silently skipped.  The clipped path fills
    whole runs ({!Hyperslab.iter_runs}, {!Bitset.set_range}), so it costs
    per run and per byte, not per element. *)

val covers_slab : t -> Hyperslab.t -> bool
(** Is every index of the selection, clipped to the set's shape, a
    member?  Checked run by run with {!Bitset.range_full}. *)

val mem : t -> int array -> bool
val cardinal : t -> int
val is_empty : t -> bool
val copy : t -> t

val union_into : t -> t -> unit
(** [union_into dst src]; shapes must be equal. *)

val inter_cardinal : t -> t -> int
val diff_cardinal : t -> t -> int
val subset : t -> t -> bool
val equal : t -> t -> bool

val iter : t -> (int array -> unit) -> unit
(** Visit members in row-major order; callback buffer is fresh per call. *)

val iter_runs : t -> (int -> int -> unit) -> unit
(** [iter_runs t f] calls [f start len] on every maximal run of members
    that are consecutive in row-major order ([start] is a linearized
    index), in increasing order. *)

val to_list : t -> int array list

val of_list : Shape.t -> int array list -> t

val fraction : t -> float
(** |set| / |index space|. *)

val random_member : t -> Kondo_prng.Rng.t -> int array option
(** Uniform member, [None] when empty.  O(capacity) scan — test helper. *)

val to_bytes : t -> bytes
(** Compact serialization: int32-LE rank, int32-LE dims, then the
    {!Bitset.write_packed} membership bytes. *)

val of_bytes : bytes -> t
(** Inverse of {!to_bytes}; padding bits of the last byte are ignored.
    @raise Invalid_argument on malformed input. *)
