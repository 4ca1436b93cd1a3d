(** The fetching side of the serve/fetch protocol.

    Every exchange runs under the fault machinery: a circuit breaker
    gates the connection, {!Kondo_faults.Retry} wraps each request with
    capped backoff over virtual time, an optional
    {!Kondo_faults.Fault_plan} injects deterministic failures into the
    exchange (site ["store:<peer>"]), and every fetched chunk's digest
    is verified against the manifest id it was requested under — a
    mismatch counts as a corrupt fetch and is {e retried}, never
    surfaced as a success.  Adjacent missing chunks are batched into one
    BATCH range GET per contiguous run. *)

type stats = {
  requests : int;           (** protocol rounds attempted *)
  range_gets : int;         (** BATCH requests issued *)
  fetched_chunks : int;     (** verified chunks received *)
  fetched_bytes : int;
  corrupt_fetches : int;    (** digest/shape mismatches detected (then retried) *)
  retries : int;
  breaker_rejections : int; (** exchanges refused by the open breaker *)
  cache_hits : int;         (** chunks served from the local chunk cache *)
}
(** A snapshot of one client's counters.  Each event is counted once, by
    a {!Kondo_obs.Registry.child} of the process-wide
    [kondo_store_client_<field>_total] — except [breaker_rejections],
    which is the client breaker's own [rejections] (process-wide:
    [kondo_breaker_rejections_total]). *)

type t

val connect :
  ?retry:Kondo_faults.Retry.policy ->
  ?breaker:Kondo_faults.Breaker.config ->
  ?faults:Kondo_faults.Fault_plan.t ->
  ?cache:Cache.t ->
  Transport.conn ->
  t
(** [cache] (optional) holds verified chunks client-side, so repeated
    misses into the same chunk cost one round trip. *)

val close : t -> unit
val stats : t -> stats
(** A fresh snapshot: later exchanges do not change it. *)

val breaker_stats : t -> Kondo_faults.Breaker.stats
(** The connection breaker's counters (its [rejections] are
    [stats.breaker_rejections]). *)

val manifest : t -> name:string -> (Chunk.manifest, Kondo_faults.Fault.error) result

val stat : t -> (Proto.stat_info, Kondo_faults.Fault.error) result

val scrape : t -> (string, Kondo_faults.Fault.error) result
(** STATS op: the server's metrics registry in Prometheus text
    exposition format. *)

val put : t -> bytes -> (Chunk.id * bool, Kondo_faults.Fault.error) result
(** Content-address a payload and PUT it; returns its id and whether it
    was new to the server. *)

val fetch_chunks :
  t -> Chunk.manifest -> first:int -> count:int ->
  (string array, Kondo_faults.Fault.error) result
(** Chunks [first .. first+count-1] in one BATCH round trip, each
    verified against the manifest (in place: the decoded payloads are
    returned, and cached, without a copy).  Any missing chunk is a permanent
    error; any corrupt chunk is a retryable one. *)

val read_bytes :
  t -> Chunk.manifest -> offset:int -> length:int ->
  (bytes, Kondo_faults.Fault.error) result
(** The blob's bytes [\[offset, offset+length)], assembled from cached
    chunks plus one range GET per contiguous run of missing chunks.
    The result is a fresh buffer holding only the requested slice of
    each chunk; the caller may mutate it.
    @raise Invalid_argument when the range exceeds the blob. *)

val store_source : t -> name:string -> Kondo_container.Runtime.store_source
(** The runtime's store source over this client: a miss in dataset [d]
    reads bytes of the blob [name ^ "#" ^ d] (the name {!Server.add_kh5}
    gives a file's dataset) through {!read_bytes}.  Each dataset's
    manifest is fetched once and memoized; a failed lookup is retried at
    the next miss.  [source_name] is the connection's peer. *)
