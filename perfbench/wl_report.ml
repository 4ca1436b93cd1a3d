(* report-3d: what `kondo report -p LDC3D|RDC3D -m 96` computes —
   Pipeline.evaluate plus Metrics.missed_valuation_rate with its
   defaults.

   Program.ground_truth memoizes per program name for the life of the
   process, while `kondo report` pays for it once per invocation; each
   pass therefore renames its programs so every pass pays it too.  A
   traced pass makes the same calls evaluate makes, each in a span. *)

open Kondo_dataarray
open Kondo_workload
open Kondo_core
open Common

type t = {
  config : Config.t;
  programs : (Program.t * Index_set.t) list;  (* with set-up's ground truth *)
  mutable passes : int;
  mutable missed : (string * float) list option;  (* first pass's missed rates *)
}

let programs () =
  List.map (fun n -> Option.get (Suite.by_name ~m:96 n)) [ "LDC3D"; "RDC3D" ]

let setup ~seed =
  { config = Config.with_jobs (Config.with_seed Config.default seed) 2;
    programs = List.map (fun p -> (p, reference_truth p)) (programs ());
    passes = 0;
    missed = None }

(* [missed_valuation_rate]'s defaults: enumerate Θ up to 100_000
   valuations, else sample 20_000. *)
let valuations_checked p =
  let n = Program.param_count p in
  if n <= 100_000 then n else 20_000

let traced_evaluate tr config p =
  let span name f = Layers.span tr name f in
  let fuzz = span "schedule" (fun () -> Schedule.run ~config p) in
  let carve = span "carver.carve" (fun () -> Carver.carve ~config fuzz.Schedule.indices) in
  let approx = span "carver.rasterize" (fun () -> Carver.rasterize p.Program.shape carve.Carver.hulls) in
  span "pipeline.union" (fun () -> Index_set.union_into approx fuzz.Schedule.indices);
  let truth = span "metrics.ground_truth" (fun () -> Program.ground_truth p) in
  let acc = span "metrics.accuracy" (fun () -> Metrics.accuracy ~truth ~approx) in
  let missed = span "metrics.missed_rate" (fun () -> Metrics.missed_valuation_rate p ~approx) in
  (fuzz, carve, approx, acc, missed)

let pass t ~tr =
  t.passes <- t.passes + 1;
  let tag = Printf.sprintf "~%d" t.passes in
  let tasks0 = counter "kondo_pool_tasks_total" in
  let results =
    List.map
      (fun (p0, truth) ->
        let p = { p0 with Program.name = p0.Program.name ^ tag } in
        let t0 = now () in
        let outcome =
          try
            Ok
              (match tr with
              | None ->
                let r = Pipeline.evaluate ~config:t.config p in
                let missed = Metrics.missed_valuation_rate p ~approx:r.Pipeline.approx in
                ( r.Pipeline.fuzz,
                  r.Pipeline.carve,
                  r.Pipeline.approx,
                  Option.get r.Pipeline.accuracy,
                  missed )
              | Some _ -> Layers.op tr "op.report" (fun () -> traced_evaluate tr t.config p))
          with e -> Error (Printexc.to_string e)
        in
        ((p0, truth), now () -. t0, outcome))
      t.programs
  in
  let wall = List.fold_left (fun acc (_, d, _) -> acc +. d) 0.0 results in
  let tasks = counter "kondo_pool_tasks_total" - tasks0 in
  let missed =
    List.filter_map
      (fun ((p, _), _, o) ->
        match o with Ok (_, _, _, _, m) -> Some (p.Program.name, m) | Error _ -> None)
      results
  in
  let errors =
    match t.missed with
    | None ->
      t.missed <- Some missed;
      []
    | Some first ->
      if first = missed then []
      else [ "report-3d: missed-valuation rates differ between passes of one seed" ]
  in
  List.fold_left
    (fun acc ((p, truth), d, outcome) ->
      let acc = { acc with op_ms = (d *. 1000.0) :: acc.op_ms; attempted = acc.attempted + 1 } in
      match outcome with
      | Error msg ->
        { acc with failed = acc.failed + 1; errors = (p.Program.name ^ ": " ^ msg) :: acc.errors }
      | Ok (fuzz, carve, approx, _acc, missed) ->
        let n = p.Program.name in
        { acc with
          recall = add2 acc.recall (recall_of truth approx);
          kept = add2 acc.kept (set_bytes p approx, data_bytes p);
          counts =
            acc.counts
            @ [ (n ^ ".schedule.evaluations", fuzz.Schedule.evaluations);
                (n ^ ".schedule.useful", fuzz.Schedule.useful_count);
                (n ^ ".carver.cells", carve.Carver.initial_cells);
                (n ^ ".carver.merges", carve.Carver.merges);
                (n ^ ".carver.approx_indices", Index_set.cardinal approx);
                (n ^ ".metrics.valuations_checked", valuations_checked p);
                (n ^ ".metrics.missed_per_million", int_of_float (Float.round (missed *. 1e6))) ] })
    { empty_pass with wall; errors; counts = [ ("pool.tasks", tasks) ] }
    results
