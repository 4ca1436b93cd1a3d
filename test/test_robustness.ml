(* Failure injection: corrupted inputs must produce clean errors, never
   crashes, unbounded allocations, or silent wrong data.

   Strategy: serialize valid artifacts, mutate them randomly, and check
   every parser either succeeds or raises its documented exception. *)

open Kondo_prng
open Kondo_dataarray
open Kondo_h5

let valid_kh5 =
  let ds =
    Dataset.dense ~name:"data" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 6; 6 |])
      ~layout:(Layout.Chunked [| 2; 3 |])
      ~attrs:[ ("units", Dataset.Str "m"); ("scale", Dataset.Num 2.0) ]
      ()
  in
  Writer.write_bytes [ (ds, fun idx -> float_of_int (idx.(0) + idx.(1))) ]

let mutate rng buf =
  let b = Bytes.copy buf in
  let ops = 1 + Rng.int rng 4 in
  for _ = 1 to ops do
    match Rng.int rng 3 with
    | 0 ->
      (* flip a byte *)
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set b i (Rng.byte rng)
    | 1 ->
      (* truncate *)
      ()
    | _ ->
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set_uint8 b i 0xFF
  done;
  let len = if Rng.bernoulli rng 0.3 then 1 + Rng.int rng (Bytes.length b) else Bytes.length b in
  Bytes.sub b 0 len

(* A debloated copy of [valid_kh5] keeping three separate ranges, so its
   header carries a sparse run table. *)
let valid_sparse_kh5 =
  let src = Filename.temp_file "kondo_fuzz" ".kh5" and dst = Filename.temp_file "kondo_fuzz" ".kh5" in
  let oc = open_out_bin src in
  output_bytes oc valid_kh5;
  close_out oc;
  let f = File.open_file src in
  let keep =
    Kondo_interval.(Interval_set.of_list [ Interval.make 0 24; Interval.make 64 72; Interval.make 200 288 ])
  in
  Writer.write_debloated dst ~source:f ~keep:(fun _ -> keep);
  File.close f;
  let b = In_channel.with_open_bin dst In_channel.input_all in
  Sys.remove src;
  Sys.remove dst;
  Bytes.of_string b

(* Opening a corrupted KH5 either works (mutation hit the data section)
   or fails with a documented exception; reads on a successfully opened
   file behave the same way. *)
let kh5_corruption_fuzz valid () =
  let rng = Rng.create 99 in
  for _ = 1 to 500 do
    let mutated = mutate rng valid in
    match File.open_port (Kondo_audit.Io_port.of_bytes ~path:"fuzz" mutated) with
    | exception (Binio.Corrupt _ | Invalid_argument _) -> ()
    | f -> (
      (* opened: element reads must not crash either *)
      try
        List.iter
          (fun ds ->
            Shape.iter ds.Dataset.shape (fun idx ->
                ignore (File.read_element f ds.Dataset.name idx)))
          (File.datasets f)
      with Binio.Corrupt _ | Invalid_argument _ | File.Data_missing _ -> ())
  done

let valid_nc =
  let path = Filename.temp_file "kondo_fuzz" ".nc" in
  Netcdf.write path
    ~dims:[ { Netcdf.dim_name = "x"; size = 4 }; { Netcdf.dim_name = "y"; size = 3 } ]
    ~vars:[ ("v", [| 0; 1 |], Netcdf.Nc_double, fun idx -> float_of_int idx.(0)) ];
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  Sys.remove path;
  b

let test_netcdf_corruption_fuzz () =
  let rng = Rng.create 77 in
  for _ = 1 to 500 do
    let mutated = mutate rng valid_nc in
    match Netcdf.open_port (Kondo_audit.Io_port.of_bytes ~path:"fuzz" mutated) with
    | exception (Binio.Corrupt _ | Invalid_argument _) -> ()
    | f -> (
      try
        List.iter
          (fun v ->
            let shape = Netcdf.shape_of_var f v in
            Shape.iter shape (fun idx ->
                ignore (Netcdf.read_element f v.Netcdf.var_name idx)))
          (Netcdf.vars f)
      with Binio.Corrupt _ | Invalid_argument _ -> ())
  done

let test_event_log_corruption_fuzz () =
  let events =
    List.init 10 (fun i ->
        { Kondo_audit.Event.seq = i; pid = 1; path = "/f"; op = Kondo_audit.Event.Read;
          offset = i * 10; size = 5 })
  in
  let path = Filename.temp_file "kondo_fuzz" ".klog" in
  Kondo_audit.Event_log.save path events;
  let ic = open_in_bin path in
  let valid = Bytes.create (in_channel_length ic) in
  really_input ic valid 0 (Bytes.length valid);
  close_in ic;
  let rng = Rng.create 55 in
  for _ = 1 to 300 do
    let mutated = mutate rng valid in
    let oc = open_out_bin path in
    output_bytes oc mutated;
    close_out oc;
    match Kondo_audit.Event_log.load path with
    | exception Failure _ -> ()
    | exception End_of_file -> Alcotest.fail "End_of_file leaked from loader"
    | _ -> ()
  done;
  Sys.remove path

let test_campaign_corruption_fuzz () =
  let p = Kondo_workload.Stencils.ldc2d ~n:16 () in
  let config =
    { Kondo_core.Config.default with Kondo_core.Config.max_iter = 50; stop_iter = 50 }
  in
  let c = Kondo_core.Campaign.extend ~config p (Kondo_core.Campaign.fresh p) 1 in
  let path = Filename.temp_file "kondo_fuzz" ".kcam" in
  Kondo_core.Campaign.save c path;
  let ic = open_in_bin path in
  let valid = Bytes.create (in_channel_length ic) in
  really_input ic valid 0 (Bytes.length valid);
  close_in ic;
  let rng = Rng.create 33 in
  for _ = 1 to 200 do
    let mutated = mutate rng valid in
    let oc = open_out_bin path in
    output_bytes oc mutated;
    close_out oc;
    match Kondo_core.Campaign.load p path with
    | exception (Invalid_argument _ | Failure _ | End_of_file) -> ()
    | loaded ->
      (* a structurally valid mutation must still belong to this program *)
      Alcotest.(check string) "name preserved" p.Kondo_workload.Program.name
        (Kondo_core.Campaign.program_name loaded)
  done;
  Sys.remove path

let test_spec_parser_never_crashes () =
  let rng = Rng.create 11 in
  let directives = [ "FROM"; "RUN"; "ADD"; "PARAM"; "ENTRYPOINT"; "CMD"; "JUNK"; "" ] in
  for _ = 1 to 500 do
    let lines = 1 + Rng.int rng 8 in
    let text =
      String.concat "\n"
        (List.init lines (fun _ ->
             let d = List.nth directives (Rng.int rng (List.length directives)) in
             let arg = String.init (Rng.int rng 20) (fun _ -> Char.chr (32 + Rng.int rng 95)) in
             d ^ " " ^ arg))
    in
    match Kondo_container.Spec.parse text with Ok _ | Error _ -> ()
  done

let suite =
  ( "robustness",
    [ Alcotest.test_case "KH5 corruption fuzz (500 mutants)" `Quick (kh5_corruption_fuzz valid_kh5);
      Alcotest.test_case "sparse KH5 corruption fuzz (500 mutants)" `Quick
        (kh5_corruption_fuzz valid_sparse_kh5);
      Alcotest.test_case "NetCDF corruption fuzz (500 mutants)" `Quick
        test_netcdf_corruption_fuzz;
      Alcotest.test_case "event log corruption fuzz" `Quick test_event_log_corruption_fuzz;
      Alcotest.test_case "campaign corruption fuzz" `Quick test_campaign_corruption_fuzz;
      Alcotest.test_case "spec parser never crashes" `Quick test_spec_parser_never_crashes ] )
