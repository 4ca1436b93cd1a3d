open Kondo_dataarray
open Kondo_audit
open Kondo_faults

(** Kondo's user-side runtime (paper §III, hardened per §VI).

    Boots an image in a directory, opens its (possibly debloated) data
    files, and serves reads.  An access to a carved-away offset raises
    the data-missing exception — or, when remote fallback is enabled
    (§VI), fetches the value from the original file at its source
    location the way a container runtime pulls missing offsets from a
    remote server.

    The source file is one more {!store_source}, built per mount, and
    its fetches take the one guarded path ({!Kondo_faults.Guard.run}):
    a retry combinator with capped exponential backoff and a deadline
    budget, a per-mount circuit breaker that stops hammering a failing
    source, and CRC-32-verified payloads (a mismatch is a retryable
    fault).  A {!Fault_plan} injects deterministic failures into the
    fetch protocol for tests and benches.  When every recovery avenue
    is exhausted the read degrades to a structured {!Degraded} error
    carrying the missing offset and the cause — never an arbitrary
    leaked exception.  Statistics account for every path. *)

type stats = {
  reads : int;           (** element reads served *)
  misses : int;          (** reads that hit carved-away data *)
  remote_fetches : int;  (** misses satisfied from the remote source file *)
  remote_bytes : int;    (** bytes pulled from the remote source file *)
  store_fetches : int;   (** misses satisfied by the chunk-store source *)
  store_bytes : int;     (** bytes served by the chunk-store source *)
  store_fallbacks : int;
      (** store-path failures, whether the file path then serves the
          miss or, with no file fallback, the read degrades *)
  retries : int;         (** extra fetch attempts beyond the first *)
  breaker_trips : int;   (** circuit-breaker open transitions *)
  degraded_reads : int;
      (** misses that ended in {!Degraded}: a failed or refused file
          fetch, or a store failure with no file fallback *)
  corrupt_fetches : int; (** payloads that failed CRC verification *)
}
(** A snapshot of one runtime's counters.  Each event is counted once,
    by a {!Kondo_obs.Registry.child} of the process-wide
    [kondo_runtime_<field>_total], so a registry scrape reconciles with
    the sum of every live runtime's stats.  [breaker_trips] is summed
    from the mount breakers (process-wide: [kondo_breaker_trips_total]). *)

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable one-count-per-line rendering (for [kondo run] and
    [kondo report]). *)

val stats_to_json : ?extra:(string * int) list -> stats -> string
(** The stats as a JSON object; [extra] appends counters from
    surrounding layers (store client, caches) to the same object. *)

type store_source = {
  source_name : string;  (** for messages, e.g. ["unix:/run/kondo.sock"] *)
  store_fetch :
    dst:string -> dataset:string -> offset:int -> length:int ->
    (bytes, Kondo_faults.Fault.error) result;
      (** Serve [length] bytes at [offset] of the named dataset's
          logical data section (the byte space {!Kondo_h5.File.missing}
          offsets are expressed in). *)
}
(** A pluggable miss-serving source — how the content-addressed chunk
    store ([Kondo_store.Client.store_source]) plugs into the runtime
    without the container layer depending on it.  The runtime serves
    the [remote] source file through the same interface.  Either way a
    payload must be exactly one element wide. *)

type degraded_cause =
  | Breaker_open                  (** the mount's circuit breaker refused the fetch *)
  | Fetch_failed of Fault.error   (** last error once retries/deadline were exhausted *)

exception Degraded of { missing : Kondo_h5.File.missing; cause : degraded_cause }
(** The structured data-missing-with-cause failure of the remote path:
    which offset was missing locally, and why the remote fetch could not
    serve it. *)

val cause_to_string : degraded_cause -> string

type t

val boot :
  ?tracer:Tracer.t ->
  ?remote:bool ->
  ?store:store_source ->
  ?faults:Fault_plan.t ->
  ?retry:Retry.policy ->
  ?breaker:Breaker.config ->
  image:Image.t ->
  dir:string ->
  unit ->
  t
(** Materialize the image's data layers under [dir] and open them.
    [remote] (default false) enables fallback to each data dependency's
    [src] file.  [store] plugs a chunk-store source in {e ahead} of the
    file fallback: a miss tries the store first and, when the store
    cannot serve it, falls back to the source file (when [remote] is
    also set and the file exists) or degrades.  [faults] (default
    {!Fault_plan.none}) injects deterministic failures into remote file
    fetches; [retry] and [breaker] tune the recovery machinery.
    [tracer] audits the container's reads. *)

val read_element : t -> dst:string -> dataset:string -> int array -> float
(** @raise Kondo_h5.File.Data_missing when the offset was carved away
    and neither a store source nor an available source file was there
    to try.
    @raise Degraded when a fetch was attempted and exhausted its retry
    budget, hit its circuit breaker, or failed permanently (for a store
    failure: when no source file followed it). *)

val try_read_element :
  t -> dst:string -> dataset:string -> int array -> (float, exn) result
(** Non-raising variant: [Error] carries exactly the exception
    {!read_element} would have raised. *)

val read_slab :
  t -> dst:string -> dataset:string -> Hyperslab.t -> (int array -> float -> unit) -> unit

val file : t -> dst:string -> Kondo_h5.File.t
(** Direct access to an opened data file.
    @raise Invalid_argument for an unknown mount point, naming the
    requested destination and the available mounts. *)

val breaker_state : t -> dst:string -> Breaker.state
(** The mount's circuit-breaker state. *)

val stats : t -> stats
(** A fresh snapshot: later reads do not change it. *)

val shutdown : t -> unit
