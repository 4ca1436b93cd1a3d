(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up several times (the median is setup_s), then runs
   passes until the next one would overrun S seconds (at least two, so
   the deterministic layer counts can be compared across passes).  With
   --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates untraced and traced passes and prints the per-layer
   metrics, the tracing overhead, and how much of the traced wall time
   the layer spans cover.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Common
open Perfbench_stats

let workloads = [ "debloat-suite"; "debloat-real"; "report-3d"; "serve-read" ]

type prepared = {
  pass : tr:Layers.t option -> Common.pass;
  teardown : unit -> unit;
}

let run_dir workload = Filename.concat "perfbench/_run" workload

let prepare workload ~seed =
  let dir = run_dir workload in
  rm_rf dir;
  mkdir_p dir;
  match workload with
  | "debloat-suite" | "debloat-real" ->
    let programs = if workload = "debloat-suite" then Wl_debloat.suite () else Wl_debloat.real () in
    let t = Wl_debloat.setup ~programs ~seed ~dir in
    { pass = (fun ~tr -> Wl_debloat.pass t ~tr); teardown = (fun () -> Wl_debloat.teardown t) }
  | "report-3d" ->
    let t = Wl_report.setup ~seed in
    { pass = (fun ~tr -> Wl_report.pass t ~tr); teardown = (fun () -> rm_rf dir) }
  | "serve-read" ->
    let t = Wl_serve.setup ~seed ~dir in
    { pass = (fun ~tr -> Wl_serve.pass t ~tr); teardown = (fun () -> Wl_serve.teardown t) }
  | w -> invalid_arg ("unknown workload " ^ w)

(* Set-up repeats: at least [min_setups] times and until [setup_floor_s]
   have passed, so a short set-up is timed several times over (a single
   serve-read set-up varied by ±15% within one process).
   debloat-real writes 161 MB of data files per set-up and stops at two. *)
let min_setups workload = if workload = "debloat-real" then 2 else 3
let setup_floor_s = 2.0

let peak_rss_mb () =
  let hwm =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> Some kb)
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> None
  in
  match hwm with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Sum of per-program counts by layer name ("CS1.carver.cells" -> "carver.cells"). *)
let layer_count counts name =
  List.fold_left
    (fun acc (k, v) ->
      let lk = String.length k and ln = String.length name in
      if k = name || (lk > ln && String.sub k (lk - ln - 1) (ln + 1) = "." ^ name) then acc + v
      else acc)
    0 counts

let per_layer_names =
  [ ("schedule.self_s", "s"); ("schedule.evaluations", "count"); ("schedule.useful_ratio", "ratio");
    ("carver.carve.self_s", "s"); ("carver.rasterize.self_s", "s"); ("carver.cells", "count");
    ("carver.merges", "count"); ("carver.approx_indices", "count");
    ("pipeline.union.self_s", "s"); ("pipeline.keep_intervals.self_s", "s");
    ("pipeline.kept_runs", "count"); ("h5.write.self_s", "s"); ("h5.bytes_written", "bytes");
    ("pool.tasks", "count"); ("metrics.ground_truth.self_s", "s");
    ("metrics.missed_rate.self_s", "s"); ("metrics.valuations_checked", "count");
    ("runtime.read.self_s", "s"); ("runtime.reads", "count"); ("runtime.misses", "count");
    ("client.read_bytes.self_s", "s"); ("client.range_gets", "count");
    ("client.fetched_bytes", "bytes"); ("client.cache_hit_ratio", "ratio");
    ("client.read_amplification", "ratio"); ("client.retries", "count");
    ("client.corrupt_fetches", "count"); ("transport.round_trips", "count");
    ("transport.wait_s", "s"); ("transport.bytes", "bytes"); ("server.requests", "count");
    ("server.request_s", "s"); ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("cache.coalesced", "count"); ("block_store.ingest_s", "s"); ("block_store.chunks", "count");
    ("trace.coverage", "ratio"); ("trace.overhead_s", "s") ]

(* Per-layer readings of one traced pass.  Span names are chosen so that
   "<span>.self_s" is the span's self time; every other name is a count
   summed over programs or a reading the pass took itself. *)
let layer_value (tr : Layers.t) (p : Common.pass) name =
  let cnt n = float_of_int (layer_count p.counts n) in
  let taken n = List.fold_left (fun a (k, v) -> if k = n then a +. v else a) 0.0 p.layers in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  match name with
  | "schedule.useful_ratio" -> ratio (cnt "schedule.useful") (cnt "schedule.evaluations")
  | "transport.wait_s" -> Layers.self tr "transport.round_trip" -. taken "server.request_s"
  | "trace.coverage" -> ratio (Layers.covered tr) p.wall
  | n when Filename.check_suffix n ".self_s" -> Layers.self tr (Filename.chop_suffix n ".self_s")
  | n -> cnt n +. taken n

(* Counts must repeat exactly across passes of one seed. *)
let count_errors passes =
  match passes with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun (p : Common.pass) ->
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k first.counts with
            | Some v0 when v0 <> v ->
              Some (Printf.sprintf "count %s differs across passes: %d vs %d" k v0 v)
            | _ -> None)
          p.counts)
      rest

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let run ~workload ~seed ~seconds ~trace =
  (* set up several times; keep the last *)
  let setup_times = ref [] in
  let prepared = ref None in
  let began = now () in
  while List.length !setup_times < min_setups workload || now () -. began < setup_floor_s do
    Option.iter (fun p -> p.teardown ()) !prepared;
    let t0 = now () in
    let p = prepare workload ~seed in
    setup_times := (now () -. t0) :: !setup_times;
    prepared := Some p
  done;
  let prep = Option.get !prepared in
  let setup_s = Stats.median !setup_times in
  let start = now () in
  (* Passes until the next would overrun [seconds]: at least two
     untraced ones, or one untraced and one traced, so counts can be
     compared across passes. *)
  let untraced = ref [] and traced = ref [] in
  let kinds = if trace then [ false; true ] else [ false ] in
  let last = ref 0.0 in
  let enough () =
    List.length !untraced + List.length !traced >= 2 && now () -. start +. !last > seconds
  in
  Fun.protect ~finally:prep.teardown (fun () ->
      while not (enough ()) do
        let t0 = now () in
        List.iter
          (fun traced_pass ->
            if traced_pass then begin
              let tr = Layers.create () in
              let p = prep.pass ~tr:(Some tr) in
              let layers = List.map (fun (n, _) -> (n, layer_value tr p n)) per_layer_names in
              traced := (p, layers) :: !traced;
              Layers.write_chrome tr (Filename.concat "perfbench/_run" (workload ^ ".trace.json"))
            end
            else untraced := prep.pass ~tr:None :: !untraced)
          kinds;
        last := now () -. t0
      done);
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let all = untraced @ List.map fst traced in
  let errors =
    List.sort_uniq compare (List.concat_map (fun (p : Common.pass) -> p.errors) all @ count_errors all)
  in
  let attempted = List.fold_left (fun a (p : Common.pass) -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a (p : Common.pass) -> a + p.failed) 0 all in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let first = List.hd untraced in
  let walls = List.map (fun (p : Common.pass) -> p.wall) untraced in
  let ops = List.concat_map (fun (p : Common.pass) -> p.op_ms) untraced in
  let n_ops = List.length ops in
  let ratio (a, b) = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let pass_s = Stats.median walls in
  let e2e =
    [ ("setup_s", "s", setup_s);
      ("pass_s", "s", pass_s);
      ("ok_ratio", "ratio", float_of_int (attempted - failed) /. float_of_int attempted);
      ("recall", "ratio", ratio first.recall);
      ("kept_bytes_ratio", "ratio", ratio first.kept);
      ("peak_rss_mb", "MB", peak_rss_mb ()) ]
  in
  (* the workload's own names for the same figures *)
  Printf.printf "workload %s, seed %d: %d operations; set-up %s s; untraced passes %s s%s\n"
    workload seed attempted
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev !setup_times)))
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
    (if trace then
       "; traced passes "
       ^ String.concat " " (List.map (fun ((p : Common.pass), _) -> Printf.sprintf "%.3f" p.wall) traced)
       ^ " s"
     else "");
  (match workload with
  | "debloat-suite" | "debloat-real" -> Printf.printf "  debloat_s        %.4f s\n" pass_s
  | "report-3d" -> Printf.printf "  report_s         %.4f s\n" pass_s
  | _ ->
    Printf.printf "  read_p50_ms      %.4f ms (%d samples)\n" (Stats.median ops) n_ops;
    (match Stats.tail ops with
    | Some t ->
      Printf.printf "  read_%s_ms  %.4f ms (%d samples)\n" (Stats.tail_label t) t.Stats.value
        t.Stats.samples
    | None -> Printf.printf "  read tail        n/a (%d samples)\n" n_ops);
    Printf.printf "  read_runs_per_s  %.2f 1/s\n"
      (float_of_int n_ops /. List.fold_left ( +. ) 0.0 walls));
  Printf.printf "  failed_ratio     %.6f (%d of %d)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  let metrics =
    if not trace then e2e
    else begin
      let names = List.map fst per_layer_names in
      let med n = Stats.median (List.map (fun (_, vs) -> List.assoc n vs) traced) in
      let overhead = Stats.median (List.map (fun (p, _) -> p.wall) traced) -. pass_s in
      List.map
        (fun n ->
          let unit = List.assoc n per_layer_names in
          (n, unit, if n = "trace.overhead_s" then overhead else med n))
        names
    end
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-32s %s %s\n" n (json_number v) u) metrics;
  let correct = errors = [] in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload; one of " ^ String.concat ", " workloads);
    exit 2
  end;
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
