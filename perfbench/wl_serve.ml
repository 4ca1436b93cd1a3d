(* serve-read: the user side.  SUBVOL is debloated under a weak fuzz
   budget (as the store experiment does), so a large share of reads
   miss the debloated file and are served by a chunk server running on
   a second domain: Server.serve_unix with the CLI defaults (1 MiB
   server cache, 4 KiB chunks, in-memory Block_store) and one BATCH
   worker.  One client connection with a 256 KiB client cache runs a
   closed loop of Zipf(1) valuations over Θ under a retryable-only fault
   plan.

   A pass replays the same [ops_per_pass] valuations from cold caches
   (fresh runtime, client, and connection; server cache cleared), so
   its layer counts repeat exactly.  Every value must equal
   Datafile.fill, and each valuation's value checksum must equal the
   checksum of the same run against the full local file. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_container
open Kondo_store
open Common

let ops_per_pass = 1500
let server_cache_bytes = 1024 * 1024
let client_cache_bytes = 256 * 1024
let mount = "/data"

(* The debloated image and the popularity ranking over Θ are fixed
   artifacts of the deployment, not of a run: with them seeded per run,
   the share of reads that miss (and so every latency) varied by ±25%
   between seeds.  The workload seed drives the Zipf draw and the fault
   plan. *)
let image_seed = 1
let popularity_seed = 7919

type t = {
  dir : string;
  prog : Program.t;
  image : Image.t;
  server : Server.t;
  socket : string;
  stop : bool Atomic.t;
  domain : unit Domain.t;
  valuations : float array array;       (* the pass's closed-loop sequence *)
  local : Kondo_h5.File.t;              (* the full source file *)
  expected : (int, int64) Hashtbl.t;    (* valuation index -> local checksum *)
  seq_ids : int array;                  (* valuation index of each op *)
  fault_plan : string;
  ingest_s : float;
  recall : int * int;
  kept : int * int;
}

let checksum_empty = Merkle.hash_bytes Bytes.empty
let checksum_add acc v = Merkle.hash_pair acc (Int64.bits_of_float v)

let setup ~seed ~dir =
  let p = Idioms.subvol () in
  let src = Filename.concat dir "SUBVOL.kh5" and deb = Filename.concat dir "SUBVOL.weak.kh5" in
  write_source p src;
  let weak =
    { Kondo_core.Config.default with Kondo_core.Config.seed = image_seed; max_iter = 60; stop_iter = 60 }
  in
  let r = Kondo_core.Pipeline.debloat_file ~config:weak p ~src ~dst:deb in
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = [ { Spec.src; dst = mount } ];
      param_space = p.Program.param_space }
  in
  let image = Image.build spec ~fetch:(fun _ -> Bytes.of_string (read_file deb)) in
  let server = Server.create ~cache_bytes:server_cache_bytes ~jobs:1 ~store:(Block_store.create ()) () in
  let t0 = now () in
  ignore (Server.add_kh5 server ~chunk_size:Chunk.default_size ~name:"SUBVOL.kh5" src);
  let ingest_s = now () -. t0 in
  let socket = Filename.concat dir "s.sock" in
  let stop = Atomic.make false and ready = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        Server.serve_unix server ~socket
          ~on_ready:(fun () -> Atomic.set ready true)
          ~stop:(fun () -> Atomic.get stop)
          ())
  in
  let deadline = now () +. 10.0 in
  while not (Atomic.get ready) do
    if now () > deadline then failwith "serve-read: the chunk server did not start";
    Unix.sleepf 0.001
  done;
  (* Θ in a fixed popularity order; the seeded Zipf draw indexes into it *)
  let all = ref [] in
  Program.iter_param_space p (fun v -> all := Array.copy v :: !all);
  let valuations = Array.of_list (List.rev !all) in
  Kondo_prng.Rng.shuffle_in_place (Kondo_prng.Rng.create popularity_seed) valuations;
  let z = Perfbench_stats.Zipf.create ~n:(Array.length valuations) ~s:1.0 ~seed in
  let seq_ids = Array.init ops_per_pass (fun _ -> Perfbench_stats.Zipf.draw z) in
  { dir;
    prog = p;
    image;
    server;
    socket;
    stop;
    domain;
    valuations;
    local = Kondo_h5.File.open_file src;
    expected = Hashtbl.create 64;
    seq_ids;
    fault_plan = Printf.sprintf "seed=%d,transient=0.01,corrupt=0.01" seed;
    ingest_s;
    recall = recall_of (reference_truth p) r.Kondo_core.Pipeline.approx;
    kept = (set_bytes p r.Kondo_core.Pipeline.approx, data_bytes p) }

let teardown t =
  Atomic.set t.stop true;
  (* wake the blocked accept *)
  (try (Transport.unix_connect t.socket).Transport.close () with Unix.Unix_error _ -> ());
  Domain.join t.domain;
  Kondo_h5.File.close t.local;
  rm_rf t.dir

(* Round-trip and byte counts always; a span per round trip when traced. *)
let wrap_conn tr (conn : Transport.conn) ~trips ~bytes =
  let leave = ref None in
  { conn with
    Transport.send =
      (fun body ->
        incr trips;
        bytes := !bytes + String.length body;
        (match tr with Some t -> leave := Some (Layers.enter t "transport.round_trip") | None -> ());
        conn.Transport.send body);
    recv =
      (fun () ->
        let r = conn.Transport.recv () in
        (match r with Ok body -> bytes := !bytes + String.length body | Error _ -> ());
        Option.iter (fun f -> f ()) !leave;
        leave := None;
        r) }

let store_source tr client =
  let manifest = ref None in
  { Runtime.source_name = "perfbench";
    store_fetch =
      (fun ~dst:_ ~dataset ~offset ~length ->
        Layers.span tr "client.read_bytes" (fun () ->
            let m =
              match !manifest with
              | Some m -> Ok m
              | None ->
                let r = Client.manifest client ~name:("#" ^ dataset) in
                (match r with Ok m -> manifest := Some m | Error _ -> ());
                r
            in
            match m with
            | Error e -> Error e
            | Ok m -> Client.read_bytes client m ~offset ~length)) }

let local_checksum t id =
  match Hashtbl.find_opt t.expected id with
  | Some c -> c
  | None ->
    let p = t.prog in
    let c = ref checksum_empty in
    Program.iter_access p t.valuations.(id) (fun idx ->
        c := checksum_add !c (Kondo_h5.File.read_element t.local p.Program.dataset idx));
    Hashtbl.add t.expected id !c;
    !c

let pass t ~tr =
  let p = t.prog in
  let srv_cache = Server.cache t.server in
  Cache.clear srv_cache;
  let c0 = Cache.stats srv_cache in
  let req0 = counter "kondo_store_server_requests_total" in
  let req_s0 = histogram_sum "kondo_store_server_request_seconds" in
  let trips = ref 0 and bytes = ref 0 in
  let conn = wrap_conn tr (Transport.unix_connect t.socket) ~trips ~bytes in
  let plan = Result.get_ok (Kondo_faults.Fault_plan.of_string t.fault_plan) in
  let client =
    Client.connect ~faults:plan ~cache:(Cache.create ~budget_bytes:client_cache_bytes ()) conn
  in
  let rt_dir = Filename.concat t.dir "rt" in
  rm_rf rt_dir;
  Unix.mkdir rt_dir 0o755;
  let rt = Runtime.boot ~store:(store_source tr client) ~image:t.image ~dir:rt_dir () in
  let values = Array.make (Shape.nelems p.Program.shape) 0.0 in
  let wrong = ref 0 and mismatched = ref 0 and failed = ref 0 and lat = ref [] in
  let t_pass = now () in
  Array.iter
    (fun id ->
      let v = t.valuations.(id) in
      let n = ref 0 and degraded = ref 0 in
      let t0 = now () in
      Layers.op tr "op.read" (fun () ->
          Layers.span tr "runtime.read" (fun () ->
              Program.iter_access p v (fun idx ->
                  match Runtime.try_read_element rt ~dst:mount ~dataset:p.Program.dataset idx with
                  | Ok x ->
                    values.(!n) <- x;
                    incr n
                  | Error _ ->
                    values.(!n) <- nan;
                    incr n;
                    incr degraded)));
      let d = now () -. t0 in
      if !degraded > 0 then begin
        (* a degraded or refused read misses any latency limit *)
        incr failed;
        lat := infinity :: !lat
      end
      else begin
        lat := (d *. 1000.0) :: !lat;
        let i = ref 0 and bad = ref 0 and c = ref checksum_empty in
        Program.iter_access p v (fun idx ->
            if values.(!i) <> Datafile.fill idx then incr bad;
            c := checksum_add !c values.(!i);
            incr i);
        if !bad > 0 then incr wrong
        else if !c <> local_checksum t id then incr mismatched
      end)
    t.seq_ids;
  let wall = now () -. t_pass in
  let s = Runtime.stats rt in
  let cs = Client.stats client in
  let c1 = Cache.stats srv_cache in
  Runtime.shutdown rt;
  Client.close client;
  let esz = Dtype.size p.Program.dtype in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  { wall;
    op_ms = !lat;
    attempted = Array.length t.seq_ids;
    failed = !failed;
    recall = t.recall;
    kept = t.kept;
    errors =
      (if !wrong > 0 then [ Printf.sprintf "serve-read: %d valuations read wrong values" !wrong ]
       else [])
      @
      if !mismatched > 0 then
        [ Printf.sprintf "serve-read: %d value checksums differ from the full local file" !mismatched ]
      else [];
    counts =
      [ ("runtime.reads", s.Runtime.reads);
        ("runtime.misses", s.Runtime.misses);
        ("client.range_gets", cs.Client.range_gets);
        ("client.fetched_bytes", cs.Client.fetched_bytes);
        ("client.fetched_chunks", cs.Client.fetched_chunks);
        ("client.cache_hits", cs.Client.cache_hits);
        ("client.retries", cs.Client.retries);
        ("client.corrupt_fetches", cs.Client.corrupt_fetches);
        ("transport.round_trips", !trips);
        ("transport.bytes", !bytes);
        ("server.requests", counter "kondo_store_server_requests_total" - req0);
        ("cache.hits", c1.Cache.hits - c0.Cache.hits);
        ("cache.misses", c1.Cache.misses - c0.Cache.misses);
        ("cache.evictions", c1.Cache.evictions - c0.Cache.evictions);
        ("cache.coalesced", c1.Cache.coalesced - c0.Cache.coalesced) ];
    layers =
      [ ("server.request_s", histogram_sum "kondo_store_server_request_seconds" -. req_s0);
        ( "client.cache_hit_ratio",
          ratio cs.Client.cache_hits (cs.Client.cache_hits + cs.Client.fetched_chunks) );
        ("client.read_amplification", ratio cs.Client.fetched_bytes (s.Runtime.misses * esz));
        ( "cache.hit_ratio",
          ratio (c1.Cache.hits - c0.Cache.hits)
            (c1.Cache.hits - c0.Cache.hits + c1.Cache.misses - c0.Cache.misses) );
        ("block_store.ingest_s", t.ingest_s);
        ("block_store.chunks", float_of_int (Block_store.count (Server.store t.server))) ] }
