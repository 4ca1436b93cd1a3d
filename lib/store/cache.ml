open Kondo_faults

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  rejections : int;
  single_flights : int;
  coalesced : int;
  current_bytes : int;
  entries : int;
}

(* Intrusive doubly-linked LRU node; [prev] points toward the MRU end. *)
type node = {
  key : Chunk.id;
  data : string;
  mutable prev : node option;
  mutable next : node option;
}

type flight = {
  mutable outcome : (string, Fault.error) result option;
}

type shard = {
  lock : Mutex.t;
  cond : Condition.t;
  tbl : (Chunk.id, node) Hashtbl.t;
  inflight : (Chunk.id, flight) Hashtbl.t;
  budget : int;
  mutable head : node option; (* MRU *)
  mutable tail : node option; (* LRU *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
  mutable rejections : int;
  mutable single_flights : int;
  mutable coalesced : int;
}

type t = { shards : shard array }

(* Registry mirrors of the per-shard counters, bumped at the same sites
   (shard lock held) so a scrape agrees with [stats] modulo in-flight
   operations. *)
module Cache_obs = struct
  open Kondo_obs

  let c name help = lazy (Registry.counter ~help Registry.default name)
  let hits = c "kondo_store_cache_hits_total" "Cache lookups served from memory"
  let misses = c "kondo_store_cache_misses_total" "Cache lookups that missed"
  let evictions = c "kondo_store_cache_evictions_total" "LRU evictions"
  let insertions = c "kondo_store_cache_insertions_total" "Entries inserted"
  let rejections = c "kondo_store_cache_rejections_total" "Oversized entries refused"
  let single_flights =
    c "kondo_store_cache_single_flights_total" "Upstream fetches led by one caller"
  let coalesced_waits =
    c "kondo_store_cache_coalesced_waits_total" "Callers that waited on an in-flight fetch"

  let inc m = Registry.inc (Lazy.force m)
end

let create ?(shards = 8) ~budget_bytes () =
  if budget_bytes < 0 then invalid_arg "Cache.create: negative budget";
  let n = max 1 (min 256 shards) in
  let base = budget_bytes / n and rem = budget_bytes mod n in
  { shards =
      Array.init n (fun i ->
          { lock = Mutex.create ();
            cond = Condition.create ();
            tbl = Hashtbl.create 64;
            inflight = Hashtbl.create 8;
            budget = base + (if i < rem then 1 else 0);
            head = None;
            tail = None;
            bytes = 0;
            hits = 0;
            misses = 0;
            evictions = 0;
            insertions = 0;
            rejections = 0;
            single_flights = 0;
            coalesced = 0 }) }

let budget t = Array.fold_left (fun acc s -> acc + s.budget) 0 t.shards
let shard_count t = Array.length t.shards

let shard_of t id =
  let h = Int64.to_int (Int64.logxor id (Int64.shift_right_logical id 17)) land max_int in
  t.shards.(h mod Array.length t.shards)

(* ---- DLL plumbing (shard lock held) ---- *)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.prev <- None;
  n.next <- s.head;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let drop_entry s n =
  unlink s n;
  Hashtbl.remove s.tbl n.key;
  s.bytes <- s.bytes - String.length n.data

let evict_to_budget s =
  while s.bytes > s.budget do
    match s.tail with
    | Some n ->
      drop_entry s n;
      s.evictions <- s.evictions + 1;
      Cache_obs.inc Cache_obs.evictions
    | None -> s.bytes <- 0 (* unreachable: bytes > 0 implies a tail *)
  done

let insert s id data =
  (match Hashtbl.find_opt s.tbl id with Some old -> drop_entry s old | None -> ());
  if String.length data > s.budget then begin
    s.rejections <- s.rejections + 1;
    Cache_obs.inc Cache_obs.rejections
  end
  else begin
    let n = { key = id; data; prev = None; next = None } in
    push_front s n;
    Hashtbl.add s.tbl id n;
    s.bytes <- s.bytes + String.length data;
    s.insertions <- s.insertions + 1;
    Cache_obs.inc Cache_obs.insertions;
    evict_to_budget s
  end

let lookup s id =
  match Hashtbl.find_opt s.tbl id with
  | Some n ->
    unlink s n;
    push_front s n;
    s.hits <- s.hits + 1;
    Cache_obs.inc Cache_obs.hits;
    Some n.data
  | None ->
    s.misses <- s.misses + 1;
    Cache_obs.inc Cache_obs.misses;
    None

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let get t id =
  let s = shard_of t id in
  locked s.lock (fun () -> lookup s id)

let put t id data =
  let s = shard_of t id in
  locked s.lock (fun () -> insert s id data)

let get_or_fetch t id ~fetch =
  let s = shard_of t id in
  Mutex.lock s.lock;
  match lookup s id with
  | Some data ->
    Mutex.unlock s.lock;
    Ok data
  | None -> (
    match Hashtbl.find_opt s.inflight id with
    | Some fl ->
      (* coalesce onto the in-flight fetch *)
      s.coalesced <- s.coalesced + 1;
      Cache_obs.inc Cache_obs.coalesced_waits;
      let rec wait () =
        match fl.outcome with
        | Some r -> r
        | None ->
          Condition.wait s.cond s.lock;
          wait ()
      in
      let r = wait () in
      Mutex.unlock s.lock;
      r
    | None ->
      (* leader: run the upstream fetch outside the shard lock *)
      let fl = { outcome = None } in
      Hashtbl.add s.inflight id fl;
      s.single_flights <- s.single_flights + 1;
      Cache_obs.inc Cache_obs.single_flights;
      Mutex.unlock s.lock;
      let r =
        match fetch () with
        | r -> r
        | exception exn -> Error (Fault.of_exn exn)
      in
      Mutex.lock s.lock;
      (match r with Ok b -> insert s id b | Error _ -> ());
      fl.outcome <- Some r;
      Hashtbl.remove s.inflight id;
      Condition.broadcast s.cond;
      Mutex.unlock s.lock;
      r)

let stats t =
  Array.fold_left
    (fun (acc : stats) s ->
      locked s.lock (fun () ->
          { hits = acc.hits + s.hits;
            misses = acc.misses + s.misses;
            evictions = acc.evictions + s.evictions;
            insertions = acc.insertions + s.insertions;
            rejections = acc.rejections + s.rejections;
            single_flights = acc.single_flights + s.single_flights;
            coalesced = acc.coalesced + s.coalesced;
            current_bytes = acc.current_bytes + s.bytes;
            entries = acc.entries + Hashtbl.length s.tbl }))
    { hits = 0; misses = 0; evictions = 0; insertions = 0; rejections = 0;
      single_flights = 0; coalesced = 0; current_bytes = 0; entries = 0 }
    t.shards

let clear t =
  Array.iter
    (fun s ->
      locked s.lock (fun () ->
          Hashtbl.reset s.tbl;
          s.head <- None;
          s.tail <- None;
          s.bytes <- 0))
    t.shards
