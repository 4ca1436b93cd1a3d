(* Tests for the syscall-style I/O auditing layer. *)

open Kondo_interval
open Kondo_audit

let test_event_interval () =
  let e = { Event.seq = 0; pid = 1; path = "f"; op = Event.Read; offset = 10; size = 5 } in
  Alcotest.(check bool) "interval" true (Event.interval e = Interval.make 10 15);
  Alcotest.(check bool) "read is access" true (Event.is_access e);
  Alcotest.(check bool) "open is not access" false
    (Event.is_access { e with Event.op = Event.Open })

let test_record_and_offsets () =
  let t = Tracer.create () in
  ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:0 ~size:10);
  ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:8 ~size:10);
  let offs = Tracer.offsets t ~pid:1 ~path:"f" in
  Alcotest.(check int) "coalesced" 1 (Interval_set.cardinal offs);
  Alcotest.(check int) "length" 18 (Interval_set.total_length offs)

let test_paper_example_per_pid () =
  let t = Tracer.create () in
  ignore (Tracer.record t ~pid:1 ~path:"d" ~op:Event.Read ~offset:0 ~size:110);
  ignore (Tracer.record t ~pid:2 ~path:"d" ~op:Event.Read ~offset:70 ~size:30);
  ignore (Tracer.record t ~pid:1 ~path:"d" ~op:Event.Read ~offset:130 ~size:20);
  ignore (Tracer.record t ~pid:1 ~path:"d" ~op:Event.Read ~offset:90 ~size:30);
  (* merged across processes: the §IV-C example result *)
  let merged = Interval_set.to_list (Tracer.offsets_of_path t ~path:"d") in
  Alcotest.(check (list (pair int int))) "(0,120)(130,150)"
    [ (0, 120); (130, 150) ]
    (List.map (fun m -> (m.Interval.lo, m.Interval.hi)) merged);
  (* per-process views stay separate *)
  let p2 = Interval_set.to_list (Tracer.offsets t ~pid:2 ~path:"d") in
  Alcotest.(check (list (pair int int))) "P2 only" [ (70, 100) ]
    (List.map (fun m -> (m.Interval.lo, m.Interval.hi)) p2)

let test_event_log_order_and_seq () =
  let t = Tracer.create () in
  for i = 0 to 4 do
    ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:(i * 10) ~size:5)
  done;
  let events = Tracer.events t in
  Alcotest.(check int) "count" 5 (List.length events);
  List.iteri (fun i e -> Alcotest.(check int) "seq" i e.Event.seq) events

let test_writes_not_in_offsets () =
  let t = Tracer.create () in
  ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Write ~offset:0 ~size:100);
  Alcotest.(check bool) "writes not indexed as accesses" true
    (Interval_set.is_empty (Tracer.offsets t ~pid:1 ~path:"f"))

let test_wrap_port_audits_reads () =
  let t = Tracer.create () in
  let port = Io_port.of_bytes ~path:"mem" (Bytes.make 64 'x') in
  let audited = Tracer.wrap t ~pid:9 port in
  let b = audited.Io_port.pread 10 6 in
  Alcotest.(check string) "data intact" "xxxxxx" (Bytes.to_string b);
  audited.Io_port.close ();
  let ops = List.map (fun e -> e.Event.op) (Tracer.events t) in
  Alcotest.(check bool) "open, read, close logged" true
    (ops = [ Event.Open; Event.Read; Event.Close ]);
  Alcotest.(check int) "offsets recorded" 6
    (Interval_set.total_length (Tracer.offsets t ~pid:9 ~path:"mem"))

let test_lookup_per_process () =
  let t = Tracer.create () in
  ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:0 ~size:50);
  ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:100 ~size:50);
  let hits = Tracer.lookup t ~pid:1 ~path:"f" (Interval.make 40 60) in
  Alcotest.(check int) "one range overlaps probe" 1 (List.length hits);
  Alcotest.(check int) "no hits for other pid" 0
    (List.length (Tracer.lookup t ~pid:2 ~path:"f" (Interval.make 0 200)))

let test_paths_and_pids () =
  let t = Tracer.create () in
  ignore (Tracer.record t ~pid:2 ~path:"b" ~op:Event.Read ~offset:0 ~size:1);
  ignore (Tracer.record t ~pid:1 ~path:"a" ~op:Event.Read ~offset:0 ~size:1);
  Alcotest.(check (list string)) "paths sorted" [ "a"; "b" ] (Tracer.paths t);
  Alcotest.(check (list int)) "pids sorted" [ 1; 2 ] (Tracer.pids t)

let test_reset () =
  let t = Tracer.create () in
  ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:0 ~size:1);
  Tracer.reset t;
  Alcotest.(check int) "cleared" 0 (Tracer.event_count t);
  Alcotest.(check bool) "index cleared" true
    (Interval_set.is_empty (Tracer.offsets t ~pid:1 ~path:"f"))

let test_io_port_of_bytes_bounds () =
  let port = Io_port.of_bytes ~path:"m" (Bytes.make 8 'a') in
  Alcotest.check_raises "oob" (Invalid_argument "Io_port.pread: out of range") (fun () ->
      ignore (port.Io_port.pread 4 8))

let with_temp_file content f =
  let path = Filename.temp_file "kondo_port" ".bin" in
  Out_channel.with_open_bin path (fun oc -> output_string oc content);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let oob = Invalid_argument "Io_port.pread: out of range"

let test_io_port_of_file_bounds () =
  with_temp_file (String.init 64 (fun i -> Char.chr (i + 32))) (fun path ->
      Io_port.with_file path (fun port ->
          Alcotest.(check string) "in-range read" " !\"#" (Bytes.to_string (port.Io_port.pread 0 4));
          Alcotest.(check string) "read ending at the end" "_" (Bytes.to_string (port.Io_port.pread 63 1));
          Alcotest.check_raises "past the end" oob (fun () -> ignore (port.Io_port.pread 60 8));
          Alcotest.check_raises "starting at the end" oob (fun () -> ignore (port.Io_port.pread 64 1));
          Alcotest.check_raises "negative offset" oob (fun () -> ignore (port.Io_port.pread (-1) 2));
          Alcotest.check_raises "negative length" oob (fun () -> ignore (port.Io_port.pread 0 (-1)))))

(* The length is read at open: a file that grows stays its old size, and
   one cut short raises Invalid_argument (not End_of_file) on a read
   past its new end. *)
let test_io_port_of_file_size_fixed_at_open () =
  with_temp_file (String.make 100 'k') (fun path ->
      let port = Io_port.of_file path in
      Fun.protect ~finally:port.Io_port.close (fun () ->
          Alcotest.(check int) "size at open" 100 (port.Io_port.size ());
          Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
              output_string oc (String.make 50 'x'));
          Alcotest.(check int) "size after the file grew" 100 (port.Io_port.size ());
          Alcotest.check_raises "appended bytes out of range" oob (fun () ->
              ignore (port.Io_port.pread 100 10));
          Unix.truncate path 10;
          Alcotest.(check int) "size after the file shrank" 100 (port.Io_port.size ());
          Alcotest.check_raises "read past the cut" oob (fun () -> ignore (port.Io_port.pread 50 10))))

let qcheck_tracer_offsets_match_model =
  QCheck.Test.make ~name:"tracer offsets equal the union of event ranges" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_range 0 500) (int_range 1 50)))
    (fun events ->
      let t = Tracer.create () in
      List.iter
        (fun (off, sz) -> ignore (Tracer.record t ~pid:1 ~path:"f" ~op:Event.Read ~offset:off ~size:sz))
        events;
      let expected =
        Interval_set.of_list (List.map (fun (off, sz) -> Interval.of_event ~offset:off ~size:sz) events)
      in
      Interval_set.equal (Tracer.offsets t ~pid:1 ~path:"f") expected)

let suite =
  ( "audit",
    [ Alcotest.test_case "event interval" `Quick test_event_interval;
      Alcotest.test_case "record and coalesce" `Quick test_record_and_offsets;
      Alcotest.test_case "paper example, per-pid views" `Quick test_paper_example_per_pid;
      Alcotest.test_case "event log order and seq" `Quick test_event_log_order_and_seq;
      Alcotest.test_case "writes not counted as accesses" `Quick test_writes_not_in_offsets;
      Alcotest.test_case "wrapped port audits reads" `Quick test_wrap_port_audits_reads;
      Alcotest.test_case "per-process lookup" `Quick test_lookup_per_process;
      Alcotest.test_case "paths and pids" `Quick test_paths_and_pids;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "io port bounds" `Quick test_io_port_of_bytes_bounds;
      Alcotest.test_case "file port bounds" `Quick test_io_port_of_file_bounds;
      Alcotest.test_case "file port size fixed at open" `Quick
        test_io_port_of_file_size_fixed_at_open;
      QCheck_alcotest.to_alcotest qcheck_tracer_offsets_match_model ] )
