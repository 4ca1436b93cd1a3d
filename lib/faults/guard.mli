(** The one hardened-call path: circuit breaker, retry with backoff,
    virtual clock and fault injection, wired together once.

    Both remote fetch paths — the runtime's source-file fetch and the
    store client's protocol exchange — run through {!run}, so a fault
    draw, a jitter draw and a clock advance happen at the same points
    whichever path a miss travels. *)

type session
(** What one caller shares across its calls: the retry policy, one
    jitter stream (seeded from the fault plan), one virtual clock, and
    the fault plan itself.  Breakers are passed per call, so one session
    can serve several breakers (one per mount, say). *)

val session : ?retry:Retry.policy -> Fault_plan.t -> session
(** [retry] defaults to {!Retry.default}.
    @raise Invalid_argument on a nonsensical policy. *)

type 'b outcome =
  | Refused  (** the breaker was open: nothing ran, no time passed *)
  | Ran of { result : ('b, Fault.error) result; retries : int }
      (** the final result and the attempts beyond the first *)

val run :
  Breaker.t ->
  session ->
  site:string ->
  ?shorten:('a -> 'a) ->
  ?corrupt:('a -> 'a) ->
  (unit -> ('a, Fault.error) result) ->
  check:('a -> ('b, Fault.error) result) ->
  'b outcome
(** [run breaker s ~site attempt ~check]: unless [breaker] refuses, retry
    [attempt] under [s]'s policy.  Each attempt is wrapped by the fault
    plan at [site] ([shorten]/[corrupt] mangle a successful raw payload,
    see {!Fault_plan.wrap}) and its raw payload is then classified by
    [check].  The virtual clock then advances by the time consumed plus
    1 ms, and the breaker records the success or failure. *)
