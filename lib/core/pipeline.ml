open Kondo_dataarray
open Kondo_interval
open Kondo_workload

type report = {
  program : string;
  fuzz : Schedule.result;
  carve : Carver.result;
  approx : Index_set.t;
  accuracy : Metrics.accuracy option;
  elapsed : float;
}

let approximate ~config p =
  Kondo_obs.Obs.span "pipeline.approximate" ~cat:"pipeline"
    ~args:[ ("program", p.Program.name) ]
    ~result_args:(fun r ->
      [ ("approx_indices", string_of_int (Index_set.cardinal r.approx));
        ("hulls", string_of_int (List.length r.carve.Carver.hulls)) ])
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let fuzz = Schedule.run ~config p in
      let carve = Carver.carve ~config fuzz.Schedule.indices in
      let approx = Carver.rasterize p.Program.shape carve.Carver.hulls in
      (* Observed indices are certainly required; hulls contain their own
         input points, but numerical eps could drop a boundary point. *)
      Index_set.union_into approx fuzz.Schedule.indices;
      { program = p.Program.name;
        fuzz;
        carve;
        approx;
        accuracy = None;
        elapsed = Unix.gettimeofday () -. t0 })

let evaluate ~config p =
  let r = approximate ~config p in
  let truth = Program.ground_truth p in
  { r with accuracy = Some (Metrics.accuracy ~truth ~approx:r.approx) }

let keep_intervals p approx ~layout =
  let shape = p.Program.shape in
  let dtype = p.Program.dtype in
  let esz = Kondo_dataarray.Dtype.size dtype in
  (* Each row-major run of kept indices is cut where the layout breaks
     contiguity on disk; chunked pieces come out of file order, so sort. *)
  let pieces = ref [] in
  Index_set.iter_runs approx (fun start len ->
      let lin = ref start and left = ref len in
      while !left > 0 do
        let idx = Shape.delinearize shape !lin in
        let n = min !left (Layout.contiguous_run layout shape dtype idx) in
        let off = Layout.element_offset layout shape dtype idx in
        pieces := Interval.make off (off + (n * esz)) :: !pieces;
        lin := !lin + n;
        left := !left - n
      done);
  let sorted = List.sort (fun a b -> compare a.Interval.lo b.Interval.lo) !pieces in
  Interval_set.of_sorted sorted

let debloat_file ~config p ~src ~dst =
  let report = approximate ~config p in
  let source = Kondo_h5.File.open_file src in
  Fun.protect
    ~finally:(fun () -> Kondo_h5.File.close source)
    (fun () ->
      let ds = Kondo_h5.File.find source p.Program.dataset in
      let keep_set = keep_intervals p report.approx ~layout:ds.Kondo_h5.Dataset.layout in
      Kondo_h5.Writer.write_debloated dst ~source ~keep:(fun name ->
          if String.equal name p.Program.dataset then keep_set else Interval_set.empty);
      report)

let debloat_file_many ~config programs ~src ~dst =
  (* One level of parallelism only: with several programs the fan-out is
     per program and the inner fuzz/carve runs sequentially (nested pool
     use is an error); a single program keeps its inner jobs so the
     carver still parallelizes.  Results are identical either way. *)
  let pool = Kondo_parallel.Pool.create ~jobs:config.Config.jobs in
  let inner =
    if Kondo_parallel.Pool.jobs pool > 1 && List.length programs > 1 then
      { config with Config.jobs = 1 }
    else config
  in
  let reports =
    Kondo_parallel.Pool.map_list pool (fun p -> (p, approximate ~config:inner p)) programs
  in
  let source = Kondo_h5.File.open_file src in
  Fun.protect
    ~finally:(fun () -> Kondo_h5.File.close source)
    (fun () ->
      let keep_for name =
        List.fold_left
          (fun acc (p, report) ->
            if String.equal p.Program.dataset name then begin
              let ds = Kondo_h5.File.find source name in
              Interval_set.union acc
                (keep_intervals p report.approx ~layout:ds.Kondo_h5.Dataset.layout)
            end
            else acc)
          Interval_set.empty reports
      in
      Kondo_h5.Writer.write_debloated dst ~source ~keep:keep_for;
      List.map (fun (p, report) -> (p.Program.name, report)) reports)

let debloat_image ~config p ~image ~dst =
  let report = approximate ~config p in
  match Kondo_container.Image.data_content image ~dst with
  | None -> raise Not_found
  | Some content ->
    let tmp_src = Filename.temp_file "kondo_full" ".kh5" in
    let tmp_dst = Filename.temp_file "kondo_debloat" ".kh5" in
    Fun.protect
      ~finally:(fun () ->
        (try Sys.remove tmp_src with Sys_error _ -> ());
        try Sys.remove tmp_dst with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin tmp_src in
        output_bytes oc content;
        close_out oc;
        let source = Kondo_h5.File.open_file tmp_src in
        Fun.protect
          ~finally:(fun () -> Kondo_h5.File.close source)
          (fun () ->
            let ds = Kondo_h5.File.find source p.Program.dataset in
            let keep_set = keep_intervals p report.approx ~layout:ds.Kondo_h5.Dataset.layout in
            Kondo_h5.Writer.write_debloated tmp_dst ~source ~keep:(fun name ->
                if String.equal name p.Program.dataset then keep_set else Interval_set.empty));
        let ic = open_in_bin tmp_dst in
        let len = in_channel_length ic in
        let debloated = Bytes.create len in
        really_input ic debloated 0 len;
        close_in ic;
        (Kondo_container.Image.replace_data image ~dst debloated, report))
