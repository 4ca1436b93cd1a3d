(** Coalescing sets of disjoint intervals.

    Maintains the invariant that stored intervals are non-empty, sorted,
    and pairwise non-touching: adding an interval merges it with every
    interval it overlaps or abuts, which is exactly the event merging of
    paper §IV-C. *)

type t

val empty : t
val is_empty : t -> bool

val add : t -> Interval.t -> t
(** Insert, coalescing with touching members.  Empty intervals are
    ignored.  O(n) in the set's size: build sets in bulk with
    {!of_list} or {!of_sorted}, not by folding [add]. *)

val of_list : Interval.t list -> t
(** Any order; duplicates and empty intervals allowed.  O(n log n). *)

val of_sorted : Interval.t list -> t
(** Linear-time construction from a list already sorted by [lo];
    overlapping/touching neighbours are coalesced.
    @raise Invalid_argument when the input is not sorted. *)

val to_list : t -> Interval.t list
(** Sorted, disjoint, non-touching. *)

val mem : t -> int -> bool
(** Point membership. *)

val covers : t -> Interval.t -> bool
(** Is the whole interval covered by a single member?  (Because members
    never touch, coverage by several members is impossible.) *)

val total_length : t -> int
val cardinal : t -> int

val union : t -> t -> t
(** O(n + m): a merge of the two sorted member lists. *)

val complement : t -> within:Interval.t -> t
(** Gaps of the set inside [within]. *)

val overlapping : t -> Interval.t -> Interval.t list
(** Members intersecting a probe interval. *)

val equal : t -> t -> bool
val to_string : t -> string
