(** Fixed-capacity bitsets.

    Index subsets over the default evaluation shapes reach millions of
    elements (2048 x 2048); a byte-packed bitset keeps membership, union
    and intersection cheap for ground truth and precision/recall math. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [\[0, n)]. *)

val capacity : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val copy : t -> t

val set_range : t -> int -> int -> unit
(** [set_range t start len] adds [\[start, start + len)], a byte at a
    time: masked head and tail bytes, whole bytes in between.  Bits that
    were already set (overlapping ranges) are not counted twice.
    @raise Invalid_argument when the range leaves [\[0, capacity)]. *)

val range_full : t -> int -> int -> bool
(** [range_full t start len]: every bit of [\[start, start + len)] is
    set ([true] when [len = 0]).  Same byte walk and bounds as
    {!set_range}. *)

val iter_runs : t -> (int -> int -> unit) -> unit
(** [iter_runs t f] calls [f start len] on every maximal run of set bits,
    in increasing order. *)

val write_packed : t -> bytes -> int -> unit
(** [write_packed t dst pos] copies the packed membership bytes
    ([(capacity + 7) / 8] of them; bit [i] is bit [i land 7] of byte
    [i lsr 3], padding bits zero) into [dst] at [pos]. *)

val read_packed : int -> bytes -> int -> t
(** [read_packed n src pos] is the set over [\[0, n)] whose packed bytes
    start at [src.[pos]] (the {!write_packed} layout); padding bits of the
    last byte are ignored.  @raise Invalid_argument when [src] is too
    short. *)

val union_into : t -> t -> unit
(** [union_into dst src] adds all of [src] to [dst]; capacities must match. *)

val inter_cardinal : t -> t -> int
val diff_cardinal : t -> t -> int
(** [diff_cardinal a b] is [|a \ b|]. *)

val iter : t -> (int -> unit) -> unit
val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b]: every member of [a] is in [b]. *)
