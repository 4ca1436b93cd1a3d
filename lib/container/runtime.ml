open Kondo_dataarray
open Kondo_faults
module Kfile = Kondo_h5.File

type stats = {
  reads : int;
  misses : int;
  remote_fetches : int;
  remote_bytes : int;
  store_fetches : int;
  store_bytes : int;
  store_fallbacks : int;
  retries : int;
  breaker_trips : int;
  degraded_reads : int;
  corrupt_fetches : int;
}

let stats_fields s =
  [ ("reads", s.reads);
    ("misses", s.misses);
    ("remote_fetches", s.remote_fetches);
    ("remote_bytes", s.remote_bytes);
    ("store_fetches", s.store_fetches);
    ("store_bytes", s.store_bytes);
    ("store_fallbacks", s.store_fallbacks);
    ("retries", s.retries);
    ("breaker_trips", s.breaker_trips);
    ("degraded_reads", s.degraded_reads);
    ("corrupt_fetches", s.corrupt_fetches) ]

let pp_stats fmt s =
  List.iter (fun (k, v) -> Format.fprintf fmt "%-16s %d@." k v) (stats_fields s)

let stats_to_json ?(extra = []) s =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" k v))
    (stats_fields s @ extra);
  Buffer.add_string b "}";
  Buffer.contents b

let fetch_seconds =
  lazy
    Kondo_obs.Registry.(
      histogram ~help:"Latency of serving one miss (store or remote path)" default
        "kondo_runtime_fetch_seconds")

type store_source = {
  source_name : string;
  store_fetch :
    dst:string -> dataset:string -> offset:int -> length:int ->
    (bytes, Fault.error) result;
}

type mount = {
  dst : string;
  local : Kfile.t;
  src : string; (* original source path, the "remote server" copy *)
  mutable file : (Kfile.t * store_source) option; (* the src file, once opened *)
  breaker : Breaker.t;
}

type degraded_cause =
  | Breaker_open
  | Fetch_failed of Fault.error

exception Degraded of { missing : Kfile.missing; cause : degraded_cause }

let cause_to_string = function
  | Breaker_open -> "circuit breaker open"
  | Fetch_failed e -> Fault.to_string e

let () =
  Printexc.register_printer (function
    | Degraded { missing; cause } ->
      Some
        (Printf.sprintf "Runtime.Degraded(%s:%s at offset %d: %s)" missing.Kfile.path
           missing.Kfile.dataset missing.Kfile.offset (cause_to_string cause))
    | _ -> None)

type t = {
  image : Image.t;
  mounts : mount list;
  remote : bool;
  store : store_source option;
  guard : Guard.session; (* one jitter stream and virtual clock for every mount *)
  (* Each counted event, once: a child of kondo_runtime_<field>_total,
     named as its [stats] field ([breaker_trips] is summed from the
     mount breakers instead). *)
  reads : Kondo_obs.Registry.counter;
  misses : Kondo_obs.Registry.counter;
  remote_fetches : Kondo_obs.Registry.counter;
  remote_bytes : Kondo_obs.Registry.counter;
  store_fetches : Kondo_obs.Registry.counter;
  store_bytes : Kondo_obs.Registry.counter;
  store_fallbacks : Kondo_obs.Registry.counter;
  retries : Kondo_obs.Registry.counter;
  degraded_reads : Kondo_obs.Registry.counter;
  corrupt_fetches : Kondo_obs.Registry.counter;
}

let counter field help =
  Kondo_obs.Registry.(child ~help default ("kondo_runtime_" ^ field ^ "_total"))

let boot ?tracer ?(remote = false) ?store ?(faults = Fault_plan.none)
    ?(retry = Retry.default) ?(breaker = Breaker.default) ~image ~dir () =
  let guard = Guard.session ~retry faults in
  let mapping = Image.materialize image ~dir in
  let mounts =
    List.map
      (fun (dst, path) ->
        let src =
          match Spec.data_dep_for image.Image.spec dst with
          | Some d -> d.Spec.src
          | None -> ""
        in
        { dst;
          local = Kfile.open_file ?tracer path;
          src;
          file = None;
          breaker = Breaker.create ~config:breaker () })
      mapping
  in
  { image;
    mounts;
    remote;
    store;
    guard;
    reads = counter "reads" "Element reads issued to the runtime";
    misses = counter "misses" "Reads that missed the local debloated file";
    remote_fetches = counter "remote_fetches" "Misses served by the remote source";
    remote_bytes = counter "remote_bytes" "Bytes fetched from the remote source";
    store_fetches = counter "store_fetches" "Misses served by the block store";
    store_bytes = counter "store_bytes" "Bytes fetched from the block store";
    store_fallbacks = counter "store_fallbacks" "Store failures handed to the remote path";
    retries = counter "retries" "Remote fetch retries";
    degraded_reads = counter "degraded_reads" "Reads that degraded";
    corrupt_fetches = counter "corrupt_fetches" "Fetches failing CRC verification" }

let mount t dst =
  match List.find_opt (fun m -> String.equal m.dst dst) t.mounts with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Runtime.mount: no mount at %S (mounted: %s)" dst
         (match t.mounts with
         | [] -> "none"
         | ms -> String.concat ", " (List.map (fun m -> m.dst) ms)))

let file t ~dst = (mount t dst).local

let breaker_state t ~dst = Breaker.state (mount t dst).breaker

(* The --remote source file as one more store source: [length] bytes at
   [offset] of the dataset's logical data section of the original file
   at the data dependency's [src], opened on the first miss. *)
let file_source t m =
  match m.file with
  | Some (_, s) -> Some s
  | None when t.remote && m.src <> "" && Sys.file_exists m.src ->
    let f = Kfile.open_file m.src in
    let s =
      { source_name = m.src;
        store_fetch =
          (fun ~dst:_ ~dataset ~offset ~length ->
            let range = Kondo_interval.Interval.make offset (offset + length) in
            match Kfile.read_raw f dataset range with
            | b -> Ok b
            | exception Kfile.Data_missing _ ->
              Error (Fault.Permanent "offset also missing at the remote source")) }
    in
    m.file <- Some (f, s);
    Some s
  | None -> None

let degrade t miss cause =
  Kondo_obs.Registry.inc t.degraded_reads;
  Error (Degraded { missing = miss; cause })

(* Every source's payload must be exactly one element wide. *)
let sized s ~esz b =
  if Bytes.length b = esz then Ok b
  else
    Error
      (Fault.Corrupt
         (Printf.sprintf "%s returned %d bytes, wanted %d" s.source_name (Bytes.length b) esz))

(* The file leg of a miss, after the store source failed with
   [store_error] (or was not given).  Each attempt is one guarded
   protocol round: the server end sends (payload, CRC-32), the fault
   plan may preempt the round, truncate the payload or corrupt it after
   the CRC was computed, and the client end verifies both — KH5's own
   corruption defense, at element granularity. *)
let from_file t m ~dataset ~dt ~esz (miss : Kfile.missing) store_error =
  match (file_source t m, store_error) with
  | exception Kondo_h5.Binio.Corrupt msg ->
    degrade t miss
      (Fetch_failed (Fault.Permanent (Printf.sprintf "remote source corrupt (%s)" msg)))
  | None, None -> Error (Kfile.Data_missing miss)
  | None, Some e -> degrade t miss (Fetch_failed e)
  | Some f, _ -> (
    let verify (b, crc) =
      Result.bind (sized f ~esz b) (fun b ->
          if Kondo_h5.Binio.crc32 b = crc then Ok b
          else begin
            Kondo_obs.Registry.inc t.corrupt_fetches;
            Error (Fault.Corrupt "payload CRC mismatch")
          end)
    in
    match
      Guard.run m.breaker t.guard ~site:("fetch:" ^ m.dst)
        ~shorten:(fun (b, crc) -> (Bytes.sub b 0 (Bytes.length b - 1), crc))
        ~corrupt:(fun (b, crc) ->
          let b = Bytes.copy b in
          Bytes.set_uint8 b 0 (Bytes.get_uint8 b 0 lxor 0xFF);
          (b, crc))
        (fun () ->
          f.store_fetch ~dst:m.dst ~dataset ~offset:miss.Kfile.offset ~length:esz
          |> Result.map (fun b -> (b, Kondo_h5.Binio.crc32 b)))
        ~check:verify
    with
    | Guard.Refused -> degrade t miss Breaker_open
    | Guard.Ran { result; retries } -> (
      Kondo_obs.Registry.inc ~by:retries t.retries;
      match result with
      | Ok b ->
        Kondo_obs.Registry.inc t.remote_fetches;
        Kondo_obs.Registry.inc ~by:esz t.remote_bytes;
        Ok (Dtype.decode dt b 0)
      | Error e -> degrade t miss (Fetch_failed e)))

(* Serve a miss: the store source when given, then the source file when
   [remote], else degrade.  A store failure counts as a fallback.  Every
   failure lands in a structured [Degraded], never a leaked exception. *)
let serve_miss t m ~dataset (miss : Kfile.missing) =
  let dt = (Kfile.find m.local dataset).Kondo_h5.Dataset.dtype in
  let esz = Dtype.size dt in
  match t.store with
  | None -> from_file t m ~dataset ~dt ~esz miss None
  | Some s -> (
    match
      Result.bind
        (s.store_fetch ~dst:m.dst ~dataset ~offset:miss.Kfile.offset ~length:esz)
        (sized s ~esz)
    with
    | Ok b ->
      Kondo_obs.Registry.inc t.store_fetches;
      Kondo_obs.Registry.inc ~by:esz t.store_bytes;
      Ok (Dtype.decode dt b 0)
    | Error e ->
      Kondo_obs.Registry.inc t.store_fallbacks;
      from_file t m ~dataset ~dt ~esz miss (Some e))

let try_read_element t ~dst ~dataset idx =
  let m = mount t dst in
  Kondo_obs.Registry.inc t.reads;
  match Kfile.read_element m.local dataset idx with
  | v -> Ok v
  | exception Kfile.Data_missing miss ->
    Kondo_obs.Registry.inc t.misses;
    let t0 = Kondo_obs.Clock.now Kondo_obs.Clock.real in
    let result = serve_miss t m ~dataset miss in
    Kondo_obs.Registry.observe
      (Lazy.force fetch_seconds)
      (Float.max 0.0 (Kondo_obs.Clock.now Kondo_obs.Clock.real -. t0));
    result

let read_element t ~dst ~dataset idx =
  match try_read_element t ~dst ~dataset idx with Ok v -> v | Error exn -> raise exn

let read_slab t ~dst ~dataset slab f =
  let m = mount t dst in
  let shape = (Kfile.find m.local dataset).Kondo_h5.Dataset.shape in
  Hyperslab.iter ~clip:shape slab (fun idx -> f idx (read_element t ~dst ~dataset idx))

let stats t : stats =
  let v = Kondo_obs.Registry.counter_value in
  { reads = v t.reads;
    misses = v t.misses;
    remote_fetches = v t.remote_fetches;
    remote_bytes = v t.remote_bytes;
    store_fetches = v t.store_fetches;
    store_bytes = v t.store_bytes;
    store_fallbacks = v t.store_fallbacks;
    retries = v t.retries;
    breaker_trips =
      List.fold_left (fun acc m -> acc + (Breaker.stats m.breaker).Breaker.trips) 0 t.mounts;
    degraded_reads = v t.degraded_reads;
    corrupt_fetches = v t.corrupt_fetches }

let shutdown t =
  List.iter
    (fun m ->
      Kfile.close m.local;
      Option.iter (fun (f, _) -> Kfile.close f) m.file)
    t.mounts
