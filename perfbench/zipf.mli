(** Seeded Zipf-distributed ranks: rank [k] (0-based) is drawn with
    probability proportional to [1 / (k+1)^s].  The same seed gives the
    same sequence. *)

type t

val create : n:int -> s:float -> seed:int -> t
(** @raise Invalid_argument when [n < 1]. *)

val draw : t -> int
(** A rank in [\[0, n)]. *)
