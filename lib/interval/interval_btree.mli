(** Interval B-tree: the event index of paper §IV-C.

    "Kondo uses interval-based B-trees to index events and performs
    per-process lookup."  This is a classic B-tree (CLRS, configurable
    minimum degree) keyed by interval start, augmented with the maximum
    interval end of every subtree so that overlap ("stabbing") queries
    prune whole subtrees.  Payloads carry event metadata (pid, op, ...).

    Insertion is O(log_d n) node visits; [overlapping] is output-sensitive.
*)

type 'a t

val create : ?min_degree:int -> unit -> 'a t
(** [min_degree] (the B-tree's [t] parameter) defaults to 16: nodes hold
    between [t-1] and [2t-1] keys.  Must be [>= 2]. *)

val insert : 'a t -> Interval.t -> 'a -> unit
(** Duplicate intervals are kept (events may repeat a range). *)

val cardinal : 'a t -> int

val height : 'a t -> int
(** Root-to-leaf node count; 0 when empty. *)

val overlapping : 'a t -> Interval.t -> (Interval.t * 'a) list
(** All stored intervals strictly overlapping the probe, in key order. *)

val stab : 'a t -> int -> (Interval.t * 'a) list
(** All stored intervals containing the point. *)

val iter : 'a t -> (Interval.t -> 'a -> unit) -> unit
(** In key order. *)

val fold : 'a t -> init:'b -> f:('b -> Interval.t -> 'a -> 'b) -> 'b

val coalesced : 'a t -> Interval_set.t
(** Union of all stored intervals as a coalesced set — the accessed-offset
    summary of §IV-C's example.  Linear in the number of stored
    intervals. *)

val check_invariants : 'a t -> unit
(** Test hook: raises [Failure] when B-tree balance, key ordering, or
    max-hi augmentation is violated. *)
