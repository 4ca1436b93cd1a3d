(* debloat-suite and debloat-real: Pipeline.debloat_file per program.

   An untraced pass calls [Pipeline.debloat_file] itself.  A traced pass
   runs the same sequence of public calls that [debloat_file] makes —
   Schedule.run, Carver.carve, Carver.rasterize, Index_set.union_into,
   Pipeline.keep_intervals, Writer.write_debloated — each in its own
   span.

   The first pass (always untraced) checks that every observed index
   reads back from the debloated file; every later pass, traced or not,
   must write a byte-identical file, which implies the same. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_core
open Common

type input = { prog : Program.t; src : string; truth : Index_set.t }

type t = {
  dir : string;
  config : Config.t;
  inputs : input list;
  first : (string, Digest.t) Hashtbl.t;  (* program -> first pass's output digest *)
}

let suite () = Suite.all11 () @ Suite.extended ()
let real () = [ Realapps.ard ~scale:16 (); Realapps.msi ~scale:256 () ]

let setup ~programs ~seed ~dir =
  let inputs =
    List.map
      (fun p ->
        let src = Filename.concat dir (p.Program.name ^ ".kh5") in
        write_source p src;
        { prog = p; src; truth = reference_truth p })
      programs
  in
  (* jobs = 2 is the CLI default on a two-core host *)
  { dir;
    config = Config.with_jobs (Config.with_seed Config.default seed) 2;
    inputs;
    first = Hashtbl.create 16 }

let dst_path t inp tag = Filename.concat t.dir (inp.prog.Program.name ^ "." ^ tag ^ ".kh5")

let traced_debloat tr config p ~src ~dst =
  let span name f = Layers.span tr name f in
  let fuzz = span "schedule" (fun () -> Schedule.run ~config p) in
  let carve = span "carver.carve" (fun () -> Carver.carve ~config fuzz.Schedule.indices) in
  let approx = span "carver.rasterize" (fun () -> Carver.rasterize p.Program.shape carve.Carver.hulls) in
  span "pipeline.union" (fun () -> Index_set.union_into approx fuzz.Schedule.indices);
  let source = span "h5.open" (fun () -> Kondo_h5.File.open_file src) in
  Fun.protect
    ~finally:(fun () -> span "h5.close" (fun () -> Kondo_h5.File.close source))
    (fun () ->
      let ds = Kondo_h5.File.find source p.Program.dataset in
      let keep =
        span "pipeline.keep_intervals" (fun () ->
            Pipeline.keep_intervals p approx ~layout:ds.Kondo_h5.Dataset.layout)
      in
      span "h5.write" (fun () ->
          Kondo_h5.Writer.write_debloated dst ~source ~keep:(fun name ->
              if String.equal name p.Program.dataset then keep
              else Kondo_interval.Interval_set.empty));
      (fuzz, carve, approx, keep))

(* One pass over every program; [tr] selects the traced sequence. *)
let pass t ~tr =
  let tasks0 = counter "kondo_pool_tasks_total" in
  let results =
    List.map
      (fun inp ->
        let p = inp.prog in
        let t0 = now () in
        let outcome =
          match tr with
          | None ->
            let dst = dst_path t inp "plain" in
            Result.map
              (fun r -> (r.Pipeline.fuzz, r.Pipeline.carve, r.Pipeline.approx, None, dst))
              (try Ok (Pipeline.debloat_file ~config:t.config p ~src:inp.src ~dst)
               with e -> Error (Printexc.to_string e))
          | Some _ ->
            let dst = dst_path t inp "traced" in
            (try
               let fuzz, carve, approx, keep =
                 Layers.op tr "op.debloat" (fun () -> traced_debloat tr t.config p ~src:inp.src ~dst)
               in
               Ok (fuzz, carve, approx, Some keep, dst)
             with e -> Error (Printexc.to_string e))
        in
        (inp, now () -. t0, outcome))
      t.inputs
  in
  let wall = List.fold_left (fun acc (_, d, _) -> acc +. d) 0.0 results in
  let tasks = counter "kondo_pool_tasks_total" - tasks0 in
  List.fold_left
    (fun acc (inp, d, outcome) ->
      let p = inp.prog in
      let acc = { acc with op_ms = (d *. 1000.0) :: acc.op_ms; attempted = acc.attempted + 1 } in
      match outcome with
      | Error msg ->
        { acc with failed = acc.failed + 1; errors = (p.Program.name ^ ": " ^ msg) :: acc.errors }
      | Ok (fuzz, carve, approx, keep, dst) ->
        let errors =
          let digest = Digest.file dst in
          match Hashtbl.find_opt t.first p.Program.name with
          | None ->
            Hashtbl.add t.first p.Program.name digest;
            check_observed p ~dst fuzz.Schedule.indices
          | Some d when d = digest -> []
          | Some _ -> [ p.Program.name ^ ": debloated file differs from the first pass's" ]
        in
        let recall = recall_of inp.truth approx in
        let n = p.Program.name in
        { acc with
          recall = add2 acc.recall recall;
          kept = add2 acc.kept (set_bytes p approx, data_bytes p);
          errors = errors @ acc.errors;
          counts =
            acc.counts
            @ [ (n ^ ".schedule.evaluations", fuzz.Schedule.evaluations);
                (n ^ ".schedule.useful", fuzz.Schedule.useful_count);
                (n ^ ".carver.cells", carve.Carver.initial_cells);
                (n ^ ".carver.merges", carve.Carver.merges);
                (n ^ ".carver.approx_indices", Index_set.cardinal approx);
                (n ^ ".recall.hits", fst recall);
                (n ^ ".h5.bytes_written", file_size dst) ];
          layers =
            (match keep with
            | None -> acc.layers
            | Some keep ->
              ("pipeline.kept_runs", float_of_int (Kondo_interval.Interval_set.cardinal keep))
              :: acc.layers) })
    { empty_pass with wall; counts = [ ("pool.tasks", tasks) ] }
    results

let teardown t = rm_rf t.dir
