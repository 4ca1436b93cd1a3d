open Kondo_faults

type stats = {
  mutable requests : int;
  mutable range_gets : int;
  mutable fetched_chunks : int;
  mutable fetched_bytes : int;
  mutable corrupt_fetches : int;
  mutable retries : int;
  mutable breaker_rejections : int;
  mutable cache_hits : int;
}

(* Registry mirrors of the client stats, plus exchange latency and
   range-GET batch-size distributions. *)
module Cl_obs = struct
  open Kondo_obs

  let c name help = lazy (Registry.counter ~help Registry.default name)
  let requests = c "kondo_store_client_requests_total" "Protocol rounds attempted"
  let range_gets = c "kondo_store_client_range_gets_total" "BATCH requests issued"
  let fetched_chunks = c "kondo_store_client_fetched_chunks_total" "Verified chunks received"
  let fetched_bytes = c "kondo_store_client_fetched_bytes_total" "Verified chunk bytes received"
  let corrupt_fetches =
    c "kondo_store_client_corrupt_fetches_total" "Digest mismatches detected (then retried)"
  let retries = c "kondo_store_client_retries_total" "Exchange retries"
  let breaker_rejections =
    c "kondo_store_client_breaker_rejections_total" "Exchanges refused by an open breaker"
  let cache_hits = c "kondo_store_client_cache_hits_total" "Chunks served from the local cache"

  let request_seconds =
    lazy
      (Registry.histogram ~help:"Breaker-gated exchange latency (including retries)"
         Registry.default "kondo_store_client_request_seconds")

  let batch_size =
    lazy
      (Registry.histogram ~help:"Chunk ids per BATCH range GET"
         ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
         Registry.default "kondo_store_client_batch_size")

  let inc ?by m = Registry.inc ?by (Lazy.force m)
end

type t = {
  conn : Transport.conn;
  retry : Retry.policy;
  breaker : Breaker.t;
  faults : Fault_plan.t;
  cache : Cache.t option;
  rng : Kondo_prng.Rng.t;
  site : string;
  mutable now_ms : float;
  stats : stats;
}

let connect ?(retry = Retry.default) ?(breaker = Breaker.default)
    ?(faults = Fault_plan.none) ?cache conn =
  Retry.validate retry;
  { conn;
    retry;
    breaker = Breaker.create ~config:breaker ();
    faults;
    cache;
    rng = Kondo_prng.Rng.create (Fault_plan.seed faults);
    site = "store:" ^ conn.Transport.peer;
    now_ms = 0.0;
    stats =
      { requests = 0;
        range_gets = 0;
        fetched_chunks = 0;
        fetched_bytes = 0;
        corrupt_fetches = 0;
        retries = 0;
        breaker_rejections = 0;
        cache_hits = 0 } }

let close t = t.conn.Transport.close ()
let stats t = t.stats
let breaker_state t = Breaker.state t.breaker

(* One protocol round under the fault plan: the injected short-read and
   corrupt mutations mangle the raw response body, which decoding (or
   digest verification downstream) then rejects as a retryable fault. *)
let round_once t req =
  t.stats.requests <- t.stats.requests + 1;
  Cl_obs.inc Cl_obs.requests;
  let attempt =
    Fault_plan.wrap t.faults ~site:t.site
      ~shorten:(fun body -> String.sub body 0 (max 0 (String.length body - 1)))
      ~corrupt:(fun body ->
        if body = "" then body
        else begin
          let b = Bytes.of_string body in
          Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0xFF);
          Bytes.unsafe_to_string b
        end)
      (fun () ->
        t.conn.Transport.send (Proto.encode_request req);
        match t.conn.Transport.recv () with
        | Ok body -> Ok body
        | Error msg -> Error (Fault.Transient msg))
  in
  match attempt with
  | Error _ as e -> e
  | Ok body -> (
    match Proto.decode_response body with
    | Ok resp -> Ok resp
    | Error msg -> Error (Fault.Corrupt ("undecodable response: " ^ msg)))

(* Breaker-gated, retried exchange.  [check] classifies a decoded
   response: Ok payload, or an error (retryable or not). *)
let exchange t req ~check =
  if not (Breaker.allow t.breaker ~now_ms:t.now_ms) then begin
    t.stats.breaker_rejections <- t.stats.breaker_rejections + 1;
    Cl_obs.inc Cl_obs.breaker_rejections;
    Error (Fault.Permanent "store circuit breaker open")
  end
  else begin
    let t0 = Kondo_obs.Clock.now Kondo_obs.Clock.real in
    let outcome =
      Retry.run t.retry ~rng:t.rng (fun ~attempt:_ ->
          match round_once t req with
          | Error _ as e -> e
          | Ok resp -> check resp)
    in
    Kondo_obs.Registry.observe
      (Lazy.force Cl_obs.request_seconds)
      (Float.max 0.0 (Kondo_obs.Clock.now Kondo_obs.Clock.real -. t0));
    t.now_ms <- t.now_ms +. outcome.Retry.elapsed_ms +. 1.0;
    t.stats.retries <- t.stats.retries + Retry.retries outcome;
    Cl_obs.inc ~by:(Retry.retries outcome) Cl_obs.retries;
    (match outcome.Retry.result with
    | Ok _ -> Breaker.record_success t.breaker
    | Error _ -> Breaker.record_failure t.breaker ~now_ms:t.now_ms);
    outcome.Retry.result
  end

let unexpected resp =
  Error
    (Fault.Corrupt
       ("unexpected response: "
       ^
       match resp with
       | Proto.Blob _ -> "blob"
       | Proto.Not_found _ -> "not-found"
       | Proto.Stored _ -> "stored"
       | Proto.Stats _ -> "stats"
       | Proto.Blobs _ -> "blobs"
       | Proto.Manifest_resp _ -> "manifest"
       | Proto.Metrics _ -> "metrics"
       | Proto.Err msg -> "error: " ^ msg))

let manifest t ~name =
  exchange t (Proto.Manifest_req name) ~check:(function
    | Proto.Manifest_resp m -> Ok m
    | Proto.Err msg -> Error (Fault.Permanent msg)
    | resp -> unexpected resp)

let stat t =
  exchange t Proto.Stat ~check:(function
    | Proto.Stats i -> Ok i
    | resp -> unexpected resp)

let scrape t =
  exchange t Proto.Scrape ~check:(function
    | Proto.Metrics text -> Ok text
    | Proto.Err msg -> Error (Fault.Permanent msg)
    | resp -> unexpected resp)

let put t payload =
  let id = Chunk.digest payload in
  exchange t
    (Proto.Put (id, Bytes.to_string payload))
    ~check:(function
      | Proto.Stored fresh -> Ok (id, fresh)
      | Proto.Err msg -> Error (Fault.Permanent msg)
      | resp -> unexpected resp)

(* Verify one fetched chunk against the manifest; a mismatch is the
   client-side CRC story of the store path: count it corrupt and hand
   the retry machinery a retryable error — never a silent success.
   The payload is checked in place and returned as is. *)
let verified t m i payload =
  if Chunk.verify m i (Bytes.unsafe_of_string payload) then begin
    let n = String.length payload in
    t.stats.fetched_chunks <- t.stats.fetched_chunks + 1;
    t.stats.fetched_bytes <- t.stats.fetched_bytes + n;
    Cl_obs.inc Cl_obs.fetched_chunks;
    Cl_obs.inc ~by:n Cl_obs.fetched_bytes;
    Ok payload
  end
  else begin
    t.stats.corrupt_fetches <- t.stats.corrupt_fetches + 1;
    Cl_obs.inc Cl_obs.corrupt_fetches;
    Error (Fault.Corrupt (Printf.sprintf "chunk %d of %s failed digest verification" i m.Chunk.name))
  end

let fetch_chunks t m ~first ~count =
  if count < 0 || first < 0 || first + count > Chunk.chunk_count m then
    invalid_arg "Client.fetch_chunks: chunk range outside manifest";
  if count = 0 then Ok [||]
  else begin
    let ids = List.init count (fun i -> m.Chunk.ids.(first + i)) in
    t.stats.range_gets <- t.stats.range_gets + 1;
    Cl_obs.inc Cl_obs.range_gets;
    Kondo_obs.Registry.observe (Lazy.force Cl_obs.batch_size) (float_of_int count);
    exchange t (Proto.Batch ids) ~check:(function
      | Proto.Blobs entries ->
        if List.length entries <> count then
          Error (Fault.Corrupt "range GET returned a different chunk count")
        else begin
          let rec collect i acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | (id, payload) :: rest ->
              if not (Int64.equal id m.Chunk.ids.(first + i)) then
                Error (Fault.Corrupt "range GET returned chunks out of order")
              else (
                match payload with
                | None ->
                  Error
                    (Fault.Permanent
                       (Printf.sprintf "chunk %d of %s missing at the store" (first + i)
                          m.Chunk.name))
                | Some p -> (
                  match verified t m (first + i) p with
                  | Ok b -> collect (i + 1) (b :: acc) rest
                  | Error err -> Error err))
          in
          collect 0 [] entries
        end
      | Proto.Err msg -> Error (Fault.Permanent msg)
      | resp -> unexpected resp)
  end

let read_bytes t m ~offset ~length =
  if offset < 0 || length < 0 || offset + length > m.Chunk.total_len then
    invalid_arg
      (Printf.sprintf "Client.read_bytes: [%d, %d) outside %s (%d bytes)" offset
         (offset + length) m.Chunk.name m.Chunk.total_len);
  if length = 0 then Ok Bytes.empty
  else begin
    let c0 = Chunk.chunk_of_offset m offset in
    let c1 = Chunk.chunk_of_offset m (offset + length - 1) in
    let n = c1 - c0 + 1 in
    let chunks = Array.make n None in
    (* consult the local chunk cache first *)
    (match t.cache with
    | None -> ()
    | Some cache ->
      for i = 0 to n - 1 do
        match Cache.get cache m.Chunk.ids.(c0 + i) with
        | Some b ->
          t.stats.cache_hits <- t.stats.cache_hits + 1;
          Cl_obs.inc Cl_obs.cache_hits;
          chunks.(i) <- Some b
        | None -> ()
      done);
    (* one range GET per contiguous run of misses: adjacent-offset
       misses travel in a single BATCH message *)
    let rec fill i =
      if i >= n then Ok ()
      else if chunks.(i) <> None then fill (i + 1)
      else begin
        let j = ref i in
        while !j < n && chunks.(!j) = None do
          incr j
        done;
        match fetch_chunks t m ~first:(c0 + i) ~count:(!j - i) with
        | Error err -> Error err
        | Ok fetched ->
          Array.iteri
            (fun k b ->
              chunks.(i + k) <- Some b;
              match t.cache with
              | Some cache -> Cache.put cache m.Chunk.ids.(c0 + i + k) b
              | None -> ())
            fetched;
          fill !j
      end
    in
    match fill 0 with
    | Error err -> Error err
    | Ok () ->
      let out = Bytes.create length in
      for i = 0 to n - 1 do
        let chunk =
          match chunks.(i) with Some b -> b | None -> assert false
        in
        let coff, clen = Chunk.chunk_span m (c0 + i) in
        let lo = max offset coff and hi = min (offset + length) (coff + clen) in
        if hi > lo then Bytes.blit_string chunk (lo - coff) out (lo - offset) (hi - lo)
      done;
      Ok out
  end
