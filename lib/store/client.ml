open Kondo_faults

type stats = {
  requests : int;
  range_gets : int;
  fetched_chunks : int;
  fetched_bytes : int;
  corrupt_fetches : int;
  retries : int;
  breaker_rejections : int;
  cache_hits : int;
}

let request_seconds =
  lazy
    Kondo_obs.Registry.(
      histogram ~help:"Breaker-gated exchange latency (including retries)" default
        "kondo_store_client_request_seconds")

let batch_size =
  lazy
    Kondo_obs.Registry.(
      histogram ~help:"Chunk ids per BATCH range GET"
        ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
        default "kondo_store_client_batch_size")

type t = {
  conn : Transport.conn;
  breaker : Breaker.t;
  guard : Guard.session;
  cache : Cache.t option;
  (* Each counted event, once: a child of
     kondo_store_client_<field>_total, named as its [stats] field
     ([breaker_rejections] is the breaker's own count). *)
  requests : Kondo_obs.Registry.counter;
  range_gets : Kondo_obs.Registry.counter;
  fetched_chunks : Kondo_obs.Registry.counter;
  fetched_bytes : Kondo_obs.Registry.counter;
  corrupt_fetches : Kondo_obs.Registry.counter;
  retries : Kondo_obs.Registry.counter;
  cache_hits : Kondo_obs.Registry.counter;
}

let counter field help =
  Kondo_obs.Registry.(child ~help default ("kondo_store_client_" ^ field ^ "_total"))

let connect ?(retry = Retry.default) ?(breaker = Breaker.default)
    ?(faults = Fault_plan.none) ?cache conn =
  { conn;
    breaker = Breaker.create ~config:breaker ();
    guard = Guard.session ~retry faults;
    cache;
    requests = counter "requests" "Protocol rounds attempted";
    range_gets = counter "range_gets" "BATCH requests issued";
    fetched_chunks = counter "fetched_chunks" "Verified chunks received";
    fetched_bytes = counter "fetched_bytes" "Verified chunk bytes received";
    corrupt_fetches =
      counter "corrupt_fetches" "Digest mismatches detected (then retried)";
    retries = counter "retries" "Exchange retries";
    cache_hits = counter "cache_hits" "Chunks served from the local cache" }

let close t = t.conn.Transport.close ()
let stats t : stats =
  let v = Kondo_obs.Registry.counter_value in
  { requests = v t.requests;
    range_gets = v t.range_gets;
    fetched_chunks = v t.fetched_chunks;
    fetched_bytes = v t.fetched_bytes;
    corrupt_fetches = v t.corrupt_fetches;
    retries = v t.retries;
    breaker_rejections = (Breaker.stats t.breaker).Breaker.rejections;
    cache_hits = v t.cache_hits }
let breaker_stats t = Breaker.stats t.breaker

(* One breaker-gated, retried exchange.  Each attempt is one protocol
   round under the fault plan: the injected short-read and corrupt
   mutations mangle the raw response body, which decoding (or digest
   verification in [check]) then rejects as a retryable fault.  [check]
   classifies a decoded response: Ok payload, or an error (retryable or
   not). *)
let exchange t req ~check =
  let t0 = Kondo_obs.Clock.now Kondo_obs.Clock.real in
  match
    Guard.run t.breaker t.guard ~site:("store:" ^ t.conn.Transport.peer)
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
        Result.map_error (fun msg -> Fault.Transient msg) (t.conn.Transport.recv ()))
      ~check:(fun body ->
        match Proto.decode_response body with
        | Ok resp -> check resp
        | Error msg -> Error (Fault.Corrupt ("undecodable response: " ^ msg)))
  with
  | Guard.Refused -> Error (Fault.Permanent "store circuit breaker open")
  | Guard.Ran { result; retries } ->
    Kondo_obs.Registry.observe
      (Lazy.force request_seconds)
      (Float.max 0.0 (Kondo_obs.Clock.now Kondo_obs.Clock.real -. t0));
    (* one protocol round per attempt *)
    Kondo_obs.Registry.inc ~by:(retries + 1) t.requests;
    Kondo_obs.Registry.inc ~by:retries t.retries;
    result

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
    Kondo_obs.Registry.inc t.fetched_chunks;
    Kondo_obs.Registry.inc ~by:(String.length payload) t.fetched_bytes;
    Ok payload
  end
  else begin
    Kondo_obs.Registry.inc t.corrupt_fetches;
    Error (Fault.Corrupt (Printf.sprintf "chunk %d of %s failed digest verification" i m.Chunk.name))
  end

let fetch_chunks t m ~first ~count =
  if count < 0 || first < 0 || first + count > Chunk.chunk_count m then
    invalid_arg "Client.fetch_chunks: chunk range outside manifest";
  if count = 0 then Ok [||]
  else begin
    let ids = List.init count (fun i -> m.Chunk.ids.(first + i)) in
    Kondo_obs.Registry.inc t.range_gets;
    Kondo_obs.Registry.observe (Lazy.force batch_size) (float_of_int count);
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
          Kondo_obs.Registry.inc t.cache_hits;
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

let store_source t ~name =
  let manifests = Hashtbl.create 4 in
  let manifest_for dataset =
    match Hashtbl.find_opt manifests dataset with
    | Some m -> Ok m
    | None ->
      Result.map
        (fun m -> Hashtbl.add manifests dataset m; m)
        (manifest t ~name:(name ^ "#" ^ dataset))
  in
  { Kondo_container.Runtime.source_name = t.conn.Transport.peer;
    store_fetch =
      (fun ~dst:_ ~dataset ~offset ~length ->
        Result.bind (manifest_for dataset) (fun m -> read_bytes t m ~offset ~length)) }
