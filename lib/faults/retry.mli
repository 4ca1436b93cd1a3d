(** Retry with capped exponential backoff, deterministic jitter, and a
    deadline budget.

    Time is {e virtual}: delays and timeout costs are accumulated in
    milliseconds, never slept, so retry behaviour — including when the
    deadline budget cuts a sequence short — is a deterministic function
    of (policy, rng stream, error sequence) and reproduces bit-exactly
    in tests and benches. *)

type policy = {
  max_attempts : int;     (** total attempts, >= 1 *)
  base_delay_ms : float;  (** backoff after the first failure *)
  max_delay_ms : float;   (** cap on any single backoff *)
  multiplier : float;     (** exponential growth factor, >= 1 *)
  jitter : float;         (** in [0,1]: each delay shrinks by up to this fraction *)
  deadline_ms : float;    (** total virtual budget across attempts and delays *)
}

val default : policy
(** 4 attempts, 10 ms base, x2, 1 s cap, 0.5 jitter, 5 s deadline. *)

val validate : policy -> unit
(** @raise Invalid_argument on nonsensical fields. *)

val delay : policy -> rng:Kondo_prng.Rng.t -> attempt:int -> float
(** Backoff after the [attempt]-th failed attempt ([attempt >= 1]). *)

val delays : policy -> rng:Kondo_prng.Rng.t -> int -> float list
(** The first [n] backoff delays for one rng stream — the exact sequence
    {!run} would use. *)

type 'a outcome = {
  result : ('a, Fault.error) result;  (** final success or last error *)
  attempts : int;                     (** attempts actually made *)
  elapsed_ms : float;                 (** virtual time consumed *)
}

val retries : 'a outcome -> int

val run :
  policy ->
  rng:Kondo_prng.Rng.t ->
  (attempt:int -> ('a, Fault.error) result) ->
  'a outcome
(** Run [f] until success, a {!Fault.Permanent} error, [max_attempts],
    or the deadline budget cannot fit the next backoff. *)
