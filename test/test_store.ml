(* Tests for the content-addressed block store subsystem: chunking,
   protocol roundtrips, crash-safe persistence, the byte-budgeted
   single-flight cache, the serve/fetch client, and the runtime
   integration. *)

open Kondo_store
open Kondo_faults
open Kondo_container
open Kondo_workload

let bytes_of_seed seed len =
  Bytes.init len (fun i -> Char.chr ((seed * 131 + i * 31 + (i * i mod 97)) land 0xFF))

let string_of_seed seed len = Bytes.to_string (bytes_of_seed seed len)
let digest_string s = Chunk.digest (Bytes.of_string s)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* ---- Chunk ---- *)

let test_chunk_split_tiles () =
  let blob = bytes_of_seed 3 1000 in
  let tiles = Chunk.split ~chunk_size:64 blob in
  Alcotest.(check int) "tile count" 16 (List.length tiles);
  let rebuilt = Buffer.create 1000 in
  List.iter (fun (_, payload) -> Buffer.add_bytes rebuilt payload) tiles;
  Alcotest.(check string) "tiles concatenate to the blob" (Bytes.to_string blob)
    (Buffer.contents rebuilt);
  let m = Chunk.manifest_of_bytes ~chunk_size:64 ~name:"b" blob in
  Alcotest.(check int) "chunk count" 16 (Chunk.chunk_count m);
  List.iter
    (fun (i, payload) ->
      Alcotest.(check bool) "payload verifies" true (Chunk.verify m i payload);
      Alcotest.(check bool) "wrong payload rejected" false
        (Chunk.verify m i (Bytes.cat payload (Bytes.make 1 'x'))))
    tiles

let test_chunk_manifest_roundtrip () =
  let blob = bytes_of_seed 9 777 in
  let m = Chunk.manifest_of_bytes ~chunk_size:100 ~name:"data#x" blob in
  (match Chunk.decode (Chunk.encode m) with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok m' ->
    Alcotest.(check string) "name" m.Chunk.name m'.Chunk.name;
    Alcotest.(check int) "total_len" m.Chunk.total_len m'.Chunk.total_len;
    Alcotest.(check bool) "ids" true (m.Chunk.ids = m'.Chunk.ids);
    Alcotest.(check int64) "root" m.Chunk.root m'.Chunk.root);
  (* a tampered root must be rejected *)
  let bad = { m with Chunk.root = Int64.add m.Chunk.root 1L } in
  match Chunk.decode (Chunk.encode bad) with
  | Ok _ -> Alcotest.fail "tampered root accepted"
  | Error _ -> ()

let qcheck_chunk_offsets =
  QCheck.Test.make ~name:"chunk_of_offset and chunk_span agree on every offset" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 1 64))
    (fun (len, chunk_size) ->
      let blob = bytes_of_seed len len in
      let m = Chunk.manifest_of_bytes ~chunk_size ~name:"q" blob in
      let ok = ref true in
      for off = 0 to len - 1 do
        let i = Chunk.chunk_of_offset m off in
        let coff, clen = Chunk.chunk_span m i in
        if not (coff <= off && off < coff + clen) then ok := false
      done;
      !ok && Chunk.chunk_count m = (len + chunk_size - 1) / chunk_size)

(* ---- Proto ---- *)

let test_proto_request_roundtrip () =
  let reqs =
    [ Proto.Get 42L;
      Proto.Put (7L, "payload");
      Proto.Stat;
      Proto.Batch [ 1L; 2L; 3L ];
      Proto.Manifest_req "file#ds" ]
  in
  List.iter
    (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok req' -> Alcotest.(check bool) "request roundtrips" true (req = req')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    reqs;
  (* truncation must be detected, not crash *)
  let enc = Proto.encode_request (Proto.Put (7L, "payload")) in
  match Proto.decode_request (String.sub enc 0 (String.length enc - 1)) with
  | Ok _ -> Alcotest.fail "truncated request accepted"
  | Error _ -> ()

let test_proto_response_roundtrip () =
  let m = Chunk.manifest_of_bytes ~chunk_size:16 ~name:"r" (bytes_of_seed 1 50) in
  let resps =
    [ Proto.Blob "chunk bytes";
      Proto.Not_found 9L;
      Proto.Stored true;
      Proto.Stored false;
      Proto.Stats
        { Proto.chunks = 1; store_bytes = 2; manifests = 3; cache_hits = 4;
          cache_misses = 5; cache_evictions = 6; cache_coalesced = 7; cache_bytes = 8 };
      Proto.Blobs [ (1L, Some "a"); (2L, None) ];
      Proto.Manifest_resp m;
      Proto.Err "boom" ]
  in
  List.iter
    (fun resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok resp' -> Alcotest.(check bool) "response roundtrips" true (resp = resp')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    resps

(* A valid body with bytes appended decodes to an Error, never an
   exception, for requests, responses and manifests alike. *)
let test_proto_trailing_bytes () =
  let m = Chunk.manifest_of_bytes ~chunk_size:16 ~name:"r" (bytes_of_seed 1 50) in
  let reqs =
    [ Proto.Get 42L; Proto.Put (7L, "payload"); Proto.Stat; Proto.Batch [ 1L; 2L ];
      Proto.Manifest_req "file#ds"; Proto.Scrape ]
  in
  let resps =
    [ Proto.Blob "chunk"; Proto.Not_found 9L; Proto.Stored true;
      Proto.Blobs [ (1L, Some "a"); (2L, None) ]; Proto.Manifest_resp m;
      Proto.Metrics "m 1"; Proto.Err "boom" ]
  in
  let rejects what = function
    | Ok _ -> Alcotest.failf "%s with trailing bytes accepted" what
    | Error _ -> ()
  in
  List.iter
    (fun tail ->
      List.iter (fun r -> rejects "request" (Proto.decode_request (Proto.encode_request r ^ tail))) reqs;
      List.iter
        (fun r -> rejects "response" (Proto.decode_response (Proto.encode_response r ^ tail)))
        resps;
      rejects "manifest" (Chunk.decode (Chunk.encode m ^ tail)))
    [ "\000"; "x"; "trailing bytes" ];
  rejects "bare STAT with a trailing byte" (Proto.decode_request "S\000")

(* ---- Block_store ---- *)

let test_block_store_basics () =
  let bs = Block_store.create () in
  let c1 = string_of_seed 1 40 and c2 = string_of_seed 2 60 in
  let id1 = digest_string c1 and id2 = digest_string c2 in
  Alcotest.(check bool) "first put is new" true (Block_store.put bs id1 c1);
  Alcotest.(check bool) "second put dedups" false (Block_store.put bs id1 c1);
  Alcotest.(check bool) "other chunk is new" true (Block_store.put bs id2 c2);
  Alcotest.(check int) "count" 2 (Block_store.count bs);
  Alcotest.(check int) "stored bytes" 100 (Block_store.stored_bytes bs);
  Alcotest.(check bool) "get returns content" true (Block_store.get bs id1 = Some c1);
  Alcotest.(check bool) "hashes sorted" true
    (let hs = Block_store.hashes bs in
     hs = List.sort Int64.compare hs && List.length hs = 2);
  Alcotest.(check int) "remove reclaims" 40 (Block_store.remove bs id1);
  Alcotest.(check bool) "removed chunk gone" true (Block_store.get bs id1 = None);
  Block_store.close bs

let test_block_store_persistence () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let chunks = List.init 5 (fun i -> string_of_seed (i + 10) (20 + (7 * i))) in
  List.iter (fun c -> ignore (Block_store.put bs (digest_string c) c)) chunks;
  Block_store.close bs;
  let bs2 = Block_store.create ~path () in
  let salvaged, intact = Block_store.load_report bs2 in
  Alcotest.(check int) "all chunks reloaded" 5 salvaged;
  Alcotest.(check bool) "file intact" true intact;
  List.iter
    (fun c ->
      Alcotest.(check bool) "content survives restart" true
        (Block_store.get bs2 (digest_string c) = Some c))
    chunks;
  Block_store.close bs2;
  Sys.remove path

(* Truncate the backing file at every byte: every prefix must salvage
   cleanly into some valid chunk prefix, and appending after a salvage
   must produce a loadable file again. *)
let test_block_store_salvage_every_truncation () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let chunks = [ string_of_seed 1 5; string_of_seed 2 7; string_of_seed 3 9 ] in
  List.iter (fun c -> ignore (Block_store.put bs (digest_string c) c)) chunks;
  Block_store.close bs;
  let ic = open_in_bin path in
  let full = Bytes.create (in_channel_length ic) in
  really_input ic full 0 (Bytes.length full);
  close_in ic;
  (* frame layout: [Frame header][u64 id][chunk]; a cut is clean exactly
     on a frame boundary *)
  let boundaries =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) c ->
              let off = off + Frame.header_len + 8 + String.length c in
              (off, off :: acc))
            (0, []) chunks))
  in
  Alcotest.(check int) "boundaries reach the file end" (Bytes.length full)
    (List.nth boundaries 2);
  let torn = Filename.temp_file "kondo_bs_torn" ".dat" in
  for cut = 0 to Bytes.length full do
    let oc = open_out_bin torn in
    output_bytes oc (Bytes.sub full 0 cut);
    close_out oc;
    let bs = Block_store.create ~path:torn () in
    let salvaged, intact = Block_store.load_report bs in
    Alcotest.(check int)
      (Printf.sprintf "salvage at cut %d is the longest valid prefix" cut)
      (List.length (List.filter (fun b -> b <= cut) boundaries))
      salvaged;
    Alcotest.(check bool)
      (Printf.sprintf "intact flag at cut %d" cut)
      (cut = 0 || List.mem cut boundaries)
      intact;
    (* every salvaged chunk must carry its exact content *)
    List.iteri
      (fun i c ->
        if i < salvaged then
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d verifies after cut %d" i cut)
            true
            (Block_store.get bs (digest_string c) = Some c))
      chunks;
    (* the store must accept appends after truncating the torn tail *)
    let extra = string_of_seed (100 + cut) 11 in
    ignore (Block_store.put bs (digest_string extra) extra);
    Block_store.close bs;
    let bs2 = Block_store.create ~path:torn () in
    let salvaged2, intact2 = Block_store.load_report bs2 in
    Alcotest.(check int)
      (Printf.sprintf "append after cut %d persists" cut)
      (salvaged + 1) salvaged2;
    Alcotest.(check bool) "appended file intact" true intact2;
    Block_store.close bs2
  done;
  Sys.remove torn;
  Sys.remove path

let test_block_store_compact () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let keep = string_of_seed 1 50 and drop = string_of_seed 2 70 in
  ignore (Block_store.put bs (digest_string keep) keep);
  ignore (Block_store.put bs (digest_string drop) drop);
  ignore (Block_store.remove bs (digest_string drop));
  let size_before = (Unix.stat path).Unix.st_size in
  Block_store.compact bs;
  let size_after = (Unix.stat path).Unix.st_size in
  Alcotest.(check bool) "compaction shrinks the file" true (size_after < size_before);
  Alcotest.(check bool) "live chunk survives compaction" true
    (Block_store.get bs (digest_string keep) = Some keep);
  Block_store.close bs;
  let bs2 = Block_store.create ~path () in
  Alcotest.(check bool) "compacted file reloads" true
    (Block_store.get bs2 (digest_string keep) = Some keep);
  Block_store.close bs2;
  Sys.remove path

(* ---- Cache ---- *)

let qcheck_cache_budget =
  QCheck.Test.make ~name:"cache never exceeds its byte budget" ~count:100
    QCheck.(triple (int_range 0 2000) (int_range 1 16) (list_of_size Gen.(0 -- 60) (int_range 0 200)))
    (fun (budget, shards, sizes) ->
      let cache = Cache.create ~shards ~budget_bytes:budget () in
      List.iteri (fun i len -> Cache.put cache (Int64.of_int i) (string_of_seed i len)) sizes;
      let s = Cache.stats cache in
      s.Cache.current_bytes <= budget && Cache.budget cache = budget)

let qcheck_cache_bookkeeping =
  QCheck.Test.make ~name:"hit/miss/eviction bookkeeping balances" ~count:100
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(0 -- 60) (int_range 0 120)))
    (fun (budget, sizes) ->
      let cache = Cache.create ~shards:4 ~budget_bytes:budget () in
      (* unique keys: every put is either an insertion or a rejection *)
      List.iteri (fun i len -> Cache.put cache (Int64.of_int i) (string_of_seed i len)) sizes;
      List.iteri (fun i _ -> ignore (Cache.get cache (Int64.of_int i))) sizes;
      let s = Cache.stats cache in
      s.Cache.insertions + s.Cache.rejections = List.length sizes
      && s.Cache.entries = s.Cache.insertions - s.Cache.evictions
      && s.Cache.hits + s.Cache.misses = List.length sizes
      && s.Cache.hits = s.Cache.entries (* live entries hit, evicted/rejected ones miss *)
      && s.Cache.current_bytes <= budget)

let test_cache_coalesces_concurrent_gets () =
  let cache = Cache.create ~shards:2 ~budget_bytes:(1024 * 1024) () in
  let payload = string_of_seed 7 100 in
  let id = digest_string payload in
  let upstream_calls = Atomic.make 0 in
  let fetch () =
    Atomic.incr upstream_calls;
    Unix.sleepf 0.03;
    Ok payload
  in
  let domains =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> Cache.get_or_fetch cache id ~fetch))
  in
  let results = Array.map Domain.join domains in
  Array.iter
    (function
      | Ok b -> Alcotest.(check bool) "identical bytes" true (b = payload)
      | Error e -> Alcotest.fail ("coalesced get failed: " ^ Fault.to_string e))
    results;
  Alcotest.(check int) "exactly one upstream fetch" 1 (Atomic.get upstream_calls);
  let s = Cache.stats cache in
  Alcotest.(check int) "one single-flight" 1 s.Cache.single_flights;
  Alcotest.(check int) "every other caller coalesced or hit" 3
    (s.Cache.coalesced + s.Cache.hits)

let test_cache_never_caches_errors () =
  let cache = Cache.create ~budget_bytes:4096 () in
  let failing () = Error (Fault.Transient "upstream down") in
  (match Cache.get_or_fetch cache 5L ~fetch:failing with
  | Ok _ -> Alcotest.fail "error fetch returned Ok"
  | Error _ -> ());
  Alcotest.(check bool) "error not cached" true (Cache.get cache 5L = None);
  (match Cache.get_or_fetch cache 5L ~fetch:(fun () -> Ok "good") with
  | Ok b -> Alcotest.(check string) "later fetch serves" "good" b
  | Error e -> Alcotest.fail (Fault.to_string e));
  let s = Cache.stats cache in
  Alcotest.(check int) "both fetches ran upstream" 2 s.Cache.single_flights

(* ---- Server + Client over loopback ---- *)

let loopback_pair ?(jobs = 1) ?(cache_bytes = 1024 * 1024) () =
  let server = Server.create ~cache_bytes ~jobs ~store:(Block_store.create ()) () in
  (server, Transport.loopback ~handle:(Server.handle server))

let test_client_reads_blob () =
  let server, conn = loopback_pair () in
  let blob = bytes_of_seed 11 5000 in
  let m = Server.add_blob server ~chunk_size:256 ~name:"blob" blob in
  let client = Client.connect conn in
  (match Client.manifest client ~name:"blob" with
  | Error e -> Alcotest.fail (Fault.to_string e)
  | Ok m' -> Alcotest.(check int64) "manifest root" m.Chunk.root m'.Chunk.root);
  (* whole blob, and an unaligned interior slice *)
  (match Client.read_bytes client m ~offset:0 ~length:5000 with
  | Ok b -> Alcotest.(check bool) "whole blob matches" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  (match Client.read_bytes client m ~offset:777 ~length:1001 with
  | Ok b ->
    Alcotest.(check bool) "interior slice matches" true (b = Bytes.sub blob 777 1001)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Client.close client

let test_client_batch_parallel_server () =
  let blob = bytes_of_seed 21 8192 in
  let read_all jobs =
    let server, conn = loopback_pair ~jobs () in
    let m = Server.add_blob server ~chunk_size:128 ~name:"blob" blob in
    let client = Client.connect conn in
    match Client.read_bytes client m ~offset:0 ~length:8192 with
    | Ok b -> b
    | Error e -> Alcotest.fail (Fault.to_string e)
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 serve identical bytes" true
    (read_all 1 = read_all 4 && read_all 4 = blob)

let test_client_cache_and_server_cache_hits () =
  let server, conn = loopback_pair () in
  let blob = bytes_of_seed 31 2048 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  let client = Client.connect ~cache:(Cache.create ~budget_bytes:65536 ()) conn in
  (match Client.read_bytes client m ~offset:0 ~length:2048 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Fault.to_string e));
  let first_gets = (Client.stats client).Client.range_gets in
  Alcotest.(check bool) "first read fetched" true (first_gets > 0);
  (match Client.read_bytes client m ~offset:0 ~length:2048 with
  | Ok b -> Alcotest.(check bool) "second read identical" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Alcotest.(check int) "second read fully client-cached" first_gets
    (Client.stats client).Client.range_gets;
  Alcotest.(check bool) "client cache hits counted" true
    ((Client.stats client).Client.cache_hits > 0);
  (* a second, cache-less client hits the server-side cache instead *)
  let client2 = Client.connect (Transport.loopback ~handle:(Server.handle server)) in
  (match Client.read_bytes client2 m ~offset:0 ~length:2048 with
  | Ok b -> Alcotest.(check bool) "server-cached bytes identical" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Alcotest.(check bool) "server cache hits counted" true
    ((Cache.stats (Server.cache server)).Cache.hits > 0)

(* Satellite: a digest mismatch on a fetched chunk must be counted as a
   corrupt fetch and must travel the retry path — the client never
   returns corrupt bytes as a success. *)
let test_client_corrupt_chunk_retried () =
  let server, _ = loopback_pair () in
  let blob = bytes_of_seed 41 512 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  (* mangle the first BATCH response: flip the last payload byte, which
     decodes fine but fails digest verification *)
  let mangled = ref false in
  let handle body =
    let resp = Server.handle server body in
    if (not !mangled) && String.length resp > 0 && resp.[0] = 'B' then begin
      mangled := true;
      let b = Bytes.of_string resp in
      let last = Bytes.length b - 1 in
      Bytes.set_uint8 b last (Bytes.get_uint8 b last lxor 0xFF);
      Bytes.unsafe_to_string b
    end
    else resp
  in
  let client = Client.connect (Transport.loopback ~handle) in
  (match Client.read_bytes client m ~offset:0 ~length:512 with
  | Ok b -> Alcotest.(check bool) "bytes correct after retry" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  let s = Client.stats client in
  Alcotest.(check int) "digest mismatch counted corrupt" 1 s.Client.corrupt_fetches;
  Alcotest.(check bool) "went through the retry path" true (s.Client.retries >= 1);
  Alcotest.(check bool) "mangler fired" true !mangled

let test_client_corrupt_fault_plan_retried () =
  let server, _ = loopback_pair () in
  let blob = bytes_of_seed 51 256 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  let plan =
    match Fault_plan.of_string "seed=5,corrupt=0.5" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let retry = { Retry.default with Retry.max_attempts = 10; deadline_ms = 1e9 } in
  let client =
    Client.connect ~retry ~faults:plan (Transport.loopback ~handle:(Server.handle server))
  in
  (* no client cache, so every read refetches: enough rounds that the
     deterministic plan corrupts at least one of them *)
  let ok_reads = ref 0 in
  for _ = 1 to 10 do
    match Client.read_bytes client m ~offset:0 ~length:256 with
    | Ok b -> if b = blob then incr ok_reads
    | Error _ -> ()
  done;
  Alcotest.(check bool) "reads succeed under corruption" true (!ok_reads > 0);
  Alcotest.(check bool) "injected corruption forced retries" true
    ((Client.stats client).Client.retries > 0)

let test_server_answers_trailing_bytes_with_err () =
  let server, _ = loopback_pair () in
  List.iter
    (fun body ->
      match Proto.decode_response (Server.handle server body) with
      | Ok (Proto.Err _) -> ()
      | Ok _ -> Alcotest.failf "%S answered with a non-error" body
      | Error e -> Alcotest.fail ("undecodable answer: " ^ e))
    [ "S\000"; Proto.encode_request (Proto.Get 3L) ^ "x"; Proto.encode_request Proto.Scrape ^ "\001" ]

(* Client reads equal direct slices of the blob, whatever the cache
   state: a client and a server cache of four 256-byte chunks (so reads
   evict), a cache warmed with a few chunks first, and exchanges that
   fail transiently one time in ten and come back corrupt one time in
   ten. *)
let qcheck_read_bytes_parity =
  let blob = bytes_of_seed 81 5000 in
  QCheck.Test.make ~name:"read_bytes equals a slice of the blob" ~count:60
    QCheck.(
      triple (int_range 0 10_000)
        (list_of_size Gen.(0 -- 4) (int_range 0 4999))
        (list_of_size Gen.(1 -- 12) (pair (int_range 0 4999) (int_range 0 900))))
    (fun (seed, warm, spans) ->
      let server, conn = loopback_pair ~cache_bytes:1024 () in
      let m = Server.add_blob server ~chunk_size:256 ~name:"blob" blob in
      let faults =
        Result.get_ok (Fault_plan.of_string (Printf.sprintf "seed=%d,transient=0.1,corrupt=0.1" seed))
      in
      let retry = { Retry.default with Retry.max_attempts = 40; deadline_ms = 1e12 } in
      let client =
        Client.connect ~retry ~faults ~cache:(Cache.create ~shards:2 ~budget_bytes:1024 ()) conn
      in
      let read off len =
        match Client.read_bytes client m ~offset:off ~length:len with
        | Ok b -> b
        | Error e -> QCheck.Test.fail_reportf "read [%d,+%d): %s" off len (Fault.to_string e)
      in
      List.iter (fun off -> ignore (read off 1)) warm;
      List.for_all
        (fun (off, len) ->
          let len = min len (5000 - off) in
          read off len = Bytes.sub blob off len)
        spans)

(* read_bytes hands out a fresh buffer: writing into it cannot reach the
   cached chunks a later read of the same range is served from. *)
let test_read_bytes_result_not_aliased () =
  let server, conn = loopback_pair () in
  let blob = bytes_of_seed 91 2048 in
  let m = Server.add_blob server ~chunk_size:256 ~name:"blob" blob in
  let client = Client.connect ~cache:(Cache.create ~budget_bytes:65536 ()) conn in
  List.iter
    (fun (offset, length) ->
      let read () =
        match Client.read_bytes client m ~offset ~length with
        | Ok b -> b
        | Error e -> Alcotest.fail (Fault.to_string e)
      in
      Bytes.fill (read ()) 0 length 'X';
      Alcotest.(check bool)
        (Printf.sprintf "[%d, +%d) unchanged after mutating an earlier result" offset length)
        true
        (read () = Bytes.sub blob offset length))
    [ (256, 256); (0, 2048); (300, 8); (250, 300) ];
  Alcotest.(check bool) "later reads were cache hits" true ((Client.stats client).Client.cache_hits > 0)

let test_server_put_and_stat () =
  let _, conn = loopback_pair () in
  let client = Client.connect conn in
  let payload = bytes_of_seed 61 90 in
  (match Client.put client payload with
  | Ok (id, fresh) ->
    Alcotest.(check int64) "content-addressed id" (Chunk.digest payload) id;
    Alcotest.(check bool) "first put fresh" true fresh
  | Error e -> Alcotest.fail (Fault.to_string e));
  (match Client.put client payload with
  | Ok (_, fresh) -> Alcotest.(check bool) "second put dedups" false fresh
  | Error e -> Alcotest.fail (Fault.to_string e));
  match Client.stat client with
  | Ok i ->
    Alcotest.(check int) "one chunk stored" 1 i.Proto.chunks;
    Alcotest.(check int) "stored bytes" 90 i.Proto.store_bytes
  | Error e -> Alcotest.fail (Fault.to_string e)

(* ---- Runtime over the store ---- *)

let build_hollow_image ?(n = 16) () =
  let p = Stencils.ldc2d ~n () in
  let src = Filename.temp_file "kondo_store_src" ".kh5" in
  Datafile.write_for ~path:src p;
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = [ { Spec.src; dst = "/data" } ];
      param_space = p.Program.param_space }
  in
  let fetch path =
    let ic = open_in_bin path in
    let b = Bytes.create (in_channel_length ic) in
    really_input ic b 0 (Bytes.length b);
    close_in ic;
    b
  in
  let img = Image.build spec ~fetch in
  let tmp_deb = Filename.temp_file "kondo_store_deb" ".kh5" in
  let f = Kondo_h5.File.open_file src in
  Kondo_h5.Writer.write_debloated tmp_deb ~source:f
    ~keep:(fun _ -> Kondo_interval.Interval_set.empty);
  Kondo_h5.File.close f;
  let img = Image.replace_data img ~dst:"/data" (fetch tmp_deb) in
  Sys.remove tmp_deb;
  (p, src, img)

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let store_source_for client ~socket =
  let manifests = Hashtbl.create 4 in
  let manifest_for dataset =
    match Hashtbl.find_opt manifests dataset with
    | Some m -> Ok m
    | None -> (
      match Client.manifest client ~name:("#" ^ dataset) with
      | Ok m ->
        Hashtbl.add manifests dataset m;
        Ok m
      | Error _ as e -> e)
  in
  { Runtime.source_name = socket;
    store_fetch =
      (fun ~dst:_ ~dataset ~offset ~length ->
        match manifest_for dataset with
        | Error e -> Error e
        | Ok m -> Client.read_bytes client m ~offset ~length) }

let test_runtime_reads_through_store () =
  let p, src, img = build_hollow_image () in
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~chunk_size:128 ~name:(Filename.basename src) src);
  let client = Client.connect ~cache:(Cache.create ~budget_bytes:65536 ()) conn in
  let store = store_source_for client ~socket:"loopback" in
  let rt = Runtime.boot ~store ~image:img ~dir:(fresh_dir "kondo_rts") () in
  for i = 0 to 15 do
    for j = 0 to 15 do
      let v = Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| i; j |] in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "element (%d,%d) served from the store" i j)
        (Datafile.fill [| i; j |])
        v
    done
  done;
  let s = Runtime.stats rt in
  Alcotest.(check int) "every read missed locally" 256 s.Runtime.misses;
  Alcotest.(check int) "every miss store-served" 256 s.Runtime.store_fetches;
  Alcotest.(check bool) "store bytes accounted" true (s.Runtime.store_bytes > 0);
  Alcotest.(check int) "no fallbacks" 0 s.Runtime.store_fallbacks;
  Alcotest.(check int) "file remote path unused" 0 s.Runtime.remote_fetches;
  Runtime.shutdown rt;
  Client.close client;
  Sys.remove src

let test_runtime_store_failure_falls_back_to_file () =
  let p, src, img = build_hollow_image () in
  let broken =
    { Runtime.source_name = "broken";
      store_fetch = (fun ~dst:_ ~dataset:_ ~offset:_ ~length:_ -> Error (Fault.Transient "down")) }
  in
  (* with the file fallback: served, and the fallback is accounted *)
  let rt =
    Runtime.boot ~remote:true ~store:broken ~image:img ~dir:(fresh_dir "kondo_rtf") ()
  in
  let v = Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| 2; 3 |] in
  Alcotest.(check (float 1e-9)) "file fallback value" (Datafile.fill [| 2; 3 |]) v;
  let s = Runtime.stats rt in
  Alcotest.(check int) "fallback counted" 1 s.Runtime.store_fallbacks;
  Alcotest.(check int) "served by the file path" 1 s.Runtime.remote_fetches;
  Alcotest.(check int) "not by the store" 0 s.Runtime.store_fetches;
  Runtime.shutdown rt;
  (* without the file fallback: a structured degrade, not a crash *)
  let rt = Runtime.boot ~store:broken ~image:img ~dir:(fresh_dir "kondo_rtg") () in
  (match Runtime.try_read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| 2; 3 |] with
  | Error (Runtime.Degraded _) -> ()
  | Ok _ -> Alcotest.fail "read served with no working source"
  | Error exn -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string exn));
  Alcotest.(check int) "degrade accounted" 1 (Runtime.stats rt).Runtime.degraded_reads;
  Runtime.shutdown rt;
  Sys.remove src

let test_runtime_stats_rendering () =
  let _, src, img = build_hollow_image () in
  let rt = Runtime.boot ~image:img ~dir:(fresh_dir "kondo_rtj") () in
  let s = Runtime.stats rt in
  let text = Format.asprintf "%a" Runtime.pp_stats s in
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " in pp_stats") true (contains text key))
    [ "reads"; "store_fetches"; "remote_fetches"; "corrupt_fetches" ];
  let json = Runtime.stats_to_json ~extra:[ ("client_cache_hits", 3) ] s in
  Alcotest.(check bool) "json has stats fields" true
    (String.length json > 0
    && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " in json") true (contains json needle))
    [ "\"store_fallbacks\": 0"; "\"client_cache_hits\": 3" ];
  Runtime.shutdown rt;
  Sys.remove src

(* ---- Registry through the block store ---- *)

let test_registry_over_block_store () =
  let _, src, img = build_hollow_image () in
  let mem = Registry.create () in
  let bs = Block_store.create () in
  let reg = Registry.create ~backend:(Block_store.registry_backend bs) () in
  let pushed_mem = Registry.push mem ~name:"img" img in
  let pushed_bs = Registry.push reg ~name:"img" img in
  Alcotest.(check int) "push size matches memory backend" pushed_mem pushed_bs;
  Alcotest.(check int) "chunk count matches" (Registry.chunk_count mem)
    (Registry.chunk_count reg);
  Alcotest.(check int) "stored bytes match" (Registry.stored_bytes mem)
    (Registry.stored_bytes reg);
  Alcotest.(check int) "registry chunks live in the block store"
    (Registry.chunk_count reg) (Block_store.count bs);
  let img_mem, xfer_mem = Registry.pull mem ~name:"img" ~have:Merkle.HashSet.empty in
  let img_bs, xfer_bs = Registry.pull reg ~name:"img" ~have:Merkle.HashSet.empty in
  Alcotest.(check int) "pull transfer matches" xfer_mem xfer_bs;
  Alcotest.(check bool) "pulled data identical" true
    (Image.data_content img_mem ~dst:"/data" = Image.data_content img_bs ~dst:"/data");
  Alcotest.(check bool) "pulled data matches the image" true
    (Image.data_content img_bs ~dst:"/data" = Image.data_content img ~dst:"/data");
  Sys.remove src

(* ---- Unix-domain socket transport ---- *)

(* Run [f socket] against [server] serving a Unix socket on another
   domain, then stop the accept loop.  When [f] fails, the server domain
   is left behind: it may be blocked on a connection [f] never closed. *)
let serving_unix server f =
  let dir = fresh_dir "kondo_sock" in
  let socket = Filename.concat dir "store.sock" in
  let stop = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.serve_unix server ~socket ~stop:(fun () -> Atomic.get stop) ())
  in
  let deadline = 100 in
  let rec wait_socket n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait_socket (n - 1)
    end
  in
  wait_socket deadline;
  let result = f socket in
  (* stop the accept loop: flip the flag, then wake it with a connection *)
  Atomic.set stop true;
  (try
     let wake = Transport.unix_connect socket in
     wake.Transport.close ()
   with Unix.Unix_error _ -> ());
  Domain.join srv;
  result

let test_unix_socket_serving () =
  let server, _ = loopback_pair () in
  let blob = bytes_of_seed 71 3000 in
  let m = Server.add_blob server ~chunk_size:100 ~name:"blob" blob in
  serving_unix server @@ fun socket ->
  let client = Client.connect (Transport.unix_connect socket) in
  (match Client.manifest client ~name:"" with
  | Ok m' -> Alcotest.(check int64) "manifest over the socket" m.Chunk.root m'.Chunk.root
  | Error e -> Alcotest.fail (Fault.to_string e));
  (match Client.read_bytes client m ~offset:123 ~length:1717 with
  | Ok b ->
    Alcotest.(check bool) "socket-served slice matches" true (b = Bytes.sub blob 123 1717)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Client.close client

(* A client that sends STAT and hangs up without reading the reply must
   cost the server that connection only: the next client is answered. *)
let test_unix_socket_survives_hangup () =
  let server, _ = loopback_pair () in
  serving_unix server @@ fun socket ->
  for _ = 1 to 3 do
    let a = Transport.unix_connect socket in
    a.Transport.send (Proto.encode_request Proto.Stat);
    a.Transport.close ()
  done;
  let b = Client.connect (Transport.unix_connect socket) in
  (match Client.stat b with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("STAT after a hang-up: " ^ Fault.to_string e));
  Client.close b;
  Alcotest.(check int) "every STAT reached the server" 4 (Server.requests_served server)

let suite =
  ( "store",
    [ Alcotest.test_case "chunk split tiles and verifies" `Quick test_chunk_split_tiles;
      Alcotest.test_case "chunk manifest roundtrips" `Quick test_chunk_manifest_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_chunk_offsets;
      Alcotest.test_case "proto request roundtrips" `Quick test_proto_request_roundtrip;
      Alcotest.test_case "proto response roundtrips" `Quick test_proto_response_roundtrip;
      Alcotest.test_case "proto trailing bytes are an error" `Quick test_proto_trailing_bytes;
      Alcotest.test_case "block store basics" `Quick test_block_store_basics;
      Alcotest.test_case "block store persists across restarts" `Quick
        test_block_store_persistence;
      Alcotest.test_case "block store salvages every truncation" `Quick
        test_block_store_salvage_every_truncation;
      Alcotest.test_case "block store compaction" `Quick test_block_store_compact;
      QCheck_alcotest.to_alcotest qcheck_cache_budget;
      QCheck_alcotest.to_alcotest qcheck_cache_bookkeeping;
      Alcotest.test_case "cache coalesces concurrent gets" `Quick
        test_cache_coalesces_concurrent_gets;
      Alcotest.test_case "cache never caches errors" `Quick test_cache_never_caches_errors;
      Alcotest.test_case "client reads blobs over loopback" `Quick test_client_reads_blob;
      Alcotest.test_case "batch fan-out is jobs-invariant" `Quick
        test_client_batch_parallel_server;
      Alcotest.test_case "client and server caches hit" `Quick
        test_client_cache_and_server_cache_hits;
      Alcotest.test_case "corrupt chunk counted and retried" `Quick
        test_client_corrupt_chunk_retried;
      Alcotest.test_case "corrupt fault plan retried" `Quick
        test_client_corrupt_fault_plan_retried;
      Alcotest.test_case "server answers trailing bytes with Err" `Quick
        test_server_answers_trailing_bytes_with_err;
      QCheck_alcotest.to_alcotest qcheck_read_bytes_parity;
      Alcotest.test_case "read_bytes result is not aliased" `Quick
        test_read_bytes_result_not_aliased;
      Alcotest.test_case "put and stat" `Quick test_server_put_and_stat;
      Alcotest.test_case "runtime reads through the store" `Quick
        test_runtime_reads_through_store;
      Alcotest.test_case "store failure falls back to the file" `Quick
        test_runtime_store_failure_falls_back_to_file;
      Alcotest.test_case "runtime stats render" `Quick test_runtime_stats_rendering;
      Alcotest.test_case "registry over the block store" `Quick
        test_registry_over_block_store;
      Alcotest.test_case "unix socket serving" `Quick test_unix_socket_serving;
      Alcotest.test_case "unix server survives a hang-up" `Quick
        test_unix_socket_survives_hangup ] )
