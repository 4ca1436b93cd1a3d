(** Failure taxonomy for fallible I/O and remote fetches.

    Every fallible operation in the fault-tolerant runtime reports one of
    these errors; the retry combinator acts on {!is_retryable} and
    {!cost_ms} of the error, never on its text.  Timeouts carry the
    virtual time they consumed so deadline budgets stay deterministic. *)

type error =
  | Transient of string        (** worth retrying: flaky I/O, short read *)
  | Timeout of { cost_ms : float }
      (** the attempt consumed [cost_ms] of (virtual) time before failing *)
  | Corrupt of string          (** payload failed CRC verification; retryable *)
  | Permanent of string        (** retrying cannot help *)

val is_retryable : error -> bool
(** Every error but [Permanent]. *)

val cost_ms : error -> float
(** Virtual time an attempt ending in this error consumed: the carried
    cost for timeouts, a nominal 1 ms otherwise. *)

val to_string : error -> string

val of_exn : exn -> error
(** Map a leaked exception to an error: [Sys_error] is transient (the
    file system may recover), everything else permanent.  Re-raises
    [Out_of_memory] and [Stack_overflow]. *)
