(* Golden outputs: for each of the 15 suite and idiom programs, plus MSI
   at a scale whose debloated file holds 1,036 runs, at a fixed seed, the
   MD5 of the debloated KH5 file and the exact missed-valuation rate (as a
   hex float).  Index-set kernels and run-table builders may get faster
   but must keep every debloated byte and every missed rate;
   test/golden_debloat.expected pins both. *)

open Kondo_workload
open Kondo_core

(* dune copies the file next to the test executable *)
let expected_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden_debloat.expected"

(* 896 is the largest multiple of 64 (MSI's x-y shrink step) that still
   keeps at least 1,000 runs: one per pixel of its 28 x 37 plane. *)
let programs () = Suite.all11 () @ Suite.extended () @ [ Realapps.msi ~scale:896 () ]

let line dir p =
  let src = Filename.concat dir (p.Program.name ^ ".full.kh5") in
  let dst = Filename.concat dir (p.Program.name ^ ".debloated.kh5") in
  Datafile.write_for ~path:src p;
  let config = Config.with_seed Config.default 11 in
  let r = Pipeline.debloat_file ~config p ~src ~dst in
  let digest = Digest.to_hex (Digest.file dst) in
  let missed = Metrics.missed_valuation_rate p ~approx:r.Pipeline.approx in
  Sys.remove src;
  Sys.remove dst;
  Printf.sprintf "%s %s %h\n" p.Program.name digest missed

let render () =
  let dir = Filename.temp_dir "kondo_golden" "" in
  Fun.protect
    ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> String.concat "" (List.map (line dir) (programs ())))

let test_golden () =
  let expected = In_channel.with_open_bin expected_file In_channel.input_all in
  Alcotest.(check string) "debloated digests and missed rates" expected (render ())

let suite =
  ( "golden",
    [ Alcotest.test_case "debloated files and missed rates match the golden file" `Slow
        test_golden ] )
