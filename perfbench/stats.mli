(** Order statistics for benchmark samples. *)

val median : float list -> float
(** Middle sample, or the mean of the two middle ones.
    @raise Invalid_argument on an empty list. *)

type tail = { per_mille : int; value : float; samples : int }
(** A percentile ([per_mille] = 990 is p99) by nearest rank, with the
    number of samples it was taken from. *)

val tail : float list -> tail option
(** The highest of p99.9, p99, p95, p90, p75 and p50 that leaves at
    least ten samples beyond it; [None] with fewer than 11 samples. *)

val tail_label : tail -> string
(** ["p99"], ["p99.9"], ... *)
