(** Deterministic fault injection.

    A plan wraps fallible operations and — driven by a PRNG seed and
    per-fault-kind rates — injects transient failures, timeouts, short
    reads, corrupted payloads, and permanent failures.  The n-th decision
    at a call site is a {e pure function of (seed, site, n)}: independent
    of what other sites ran in between, of wall-clock time, and of the
    [--jobs] count, so every failure scenario reproduces exactly in
    tests, benches, and CI. *)

type kind = Inject_transient | Inject_timeout | Inject_short_read | Inject_corrupt | Inject_permanent

type t

val none : t
(** Injects nothing; {!wrap} still protects the thunk. *)

val create :
  ?transient:float ->
  ?timeout:float ->
  ?timeout_cost_ms:float ->
  ?short_read:float ->
  ?corrupt:float ->
  ?permanent:float ->
  seed:int ->
  unit ->
  t
(** Per-call rates in [\[0,1\]] (summing to at most 1; at most one fault
    fires per call).  [timeout_cost_ms] (default 100) is the virtual time
    an injected timeout consumes against retry deadline budgets.
    @raise Invalid_argument on rates outside [\[0,1\]] or summing > 1. *)

val is_none : t -> bool
val seed : t -> int

val decide : t -> site:string -> kind option
(** Draw the next decision for [site], advancing its counter. *)

val decide_at : t -> site:string -> int -> kind option
(** The n-th decision for [site] as a pure function — what the n-th
    {!decide} call returns, without advancing anything. *)

val wrap :
  t ->
  site:string ->
  ?corrupt:('a -> 'a) ->
  ?shorten:('a -> 'a) ->
  (unit -> ('a, Fault.error) result) ->
  ('a, Fault.error) result
(** Run a fallible thunk under the plan.  Injected transient/timeout/
    permanent faults preempt the thunk; short-read and corrupt faults run
    it and mangle a successful payload with [shorten]/[corrupt] (when
    omitted, they degrade to a transient/corrupt error instead, so any
    thunk can be wrapped).  Exceptions escaping the thunk are mapped
    through {!Fault.of_exn}. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse a plan spec: comma-separated [key=value] with keys [seed],
    [transient], [timeout], [timeout-cost-ms], [short], [corrupt],
    [permanent] — e.g. ["seed=7,transient=0.2,timeout=0.05"].  [""],
    ["none"], and ["off"] mean {!none}. *)
