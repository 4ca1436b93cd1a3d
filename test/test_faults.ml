(* Tests for kondo_faults: deterministic fault plans, the retry
   combinator, the circuit breaker, CRC framing, and the salvaging
   loaders built on them (Event_log, Campaign). *)

open Kondo_faults

(* ---------------- Fault ---------------- *)

let test_fault_classify () =
  Alcotest.(check bool) "transient retryable" true
    (Fault.is_retryable (Fault.Transient "x"));
  Alcotest.(check bool) "timeout retryable" true
    (Fault.is_retryable (Fault.Timeout { cost_ms = 5.0 }));
  Alcotest.(check bool) "corrupt retryable" true (Fault.is_retryable (Fault.Corrupt "x"));
  Alcotest.(check bool) "permanent fatal" false
    (Fault.is_retryable (Fault.Permanent "x"));
  Alcotest.(check (float 1e-9)) "timeout carries its cost" 42.0
    (Fault.cost_ms (Fault.Timeout { cost_ms = 42.0 }));
  match Fault.of_exn (Sys_error "disk") with
  | Fault.Transient _ -> ()
  | e -> Alcotest.fail ("Sys_error should map to Transient, got " ^ Fault.to_string e)

(* ---------------- Fault_plan ---------------- *)

let mk_plan seed =
  Fault_plan.create ~transient:0.3 ~timeout:0.1 ~short_read:0.1 ~corrupt:0.1
    ~permanent:0.05 ~seed ()

let drain plan ~site n = List.init n (fun _ -> Fault_plan.decide plan ~site)

let qcheck_plan_reproducible =
  QCheck.Test.make ~name:"fault plan decisions reproduce for a fixed seed" ~count:100
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let a = drain (mk_plan seed) ~site:"s" n in
      let b = drain (mk_plan seed) ~site:"s" n in
      a = b)

let qcheck_plan_site_independent =
  QCheck.Test.make
    ~name:"per-site decisions are independent of interleaving (jobs-invariant)"
    ~count:100
    QCheck.(pair small_int (int_range 1 100))
    (fun (seed, n) ->
      (* sequential: drain site a fully, then site b *)
      let p1 = mk_plan seed in
      let seq_a = drain p1 ~site:"a" n in
      let seq_b = drain p1 ~site:"b" n in
      (* interleaved: alternate a/b draws, as concurrent callers would *)
      let p2 = mk_plan seed in
      let int_a = ref [] and int_b = ref [] in
      for _ = 1 to n do
        int_a := Fault_plan.decide p2 ~site:"a" :: !int_a;
        int_b := Fault_plan.decide p2 ~site:"b" :: !int_b
      done;
      seq_a = List.rev !int_a && seq_b = List.rev !int_b)

let qcheck_plan_decide_at_pure =
  QCheck.Test.make ~name:"decide_at n is the n-th decide, without advancing" ~count:100
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let p = mk_plan seed in
      let predicted = List.init n (fun i -> Fault_plan.decide_at p ~site:"s" i) in
      predicted = drain p ~site:"s" n)

let test_plan_spec_roundtrip () =
  let check spec =
    match Fault_plan.of_string spec with
    | Error e -> Alcotest.fail (spec ^ ": " ^ e)
    | Ok p -> (
      match Fault_plan.of_string (Fault_plan.to_string p) with
      | Error e -> Alcotest.fail ("roundtrip: " ^ e)
      | Ok p2 ->
        Alcotest.(check string) ("roundtrip " ^ spec) (Fault_plan.to_string p)
          (Fault_plan.to_string p2))
  in
  check "seed=7,transient=0.2,timeout=0.1,corrupt=0.05";
  check "seed=3,permanent=1.0";
  (match Fault_plan.of_string "none" with
  | Ok p -> Alcotest.(check bool) "none is none" true (Fault_plan.is_none p)
  | Error e -> Alcotest.fail e);
  (match Fault_plan.of_string "seed=1,transient=0.9,corrupt=0.9" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rates summing over 1 should be rejected");
  match Fault_plan.of_string "seed=1,bogus=0.1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key should be rejected"

let test_plan_wrap () =
  (* a permanent-only plan preempts the thunk *)
  let p = Fault_plan.create ~permanent:1.0 ~seed:1 () in
  let ran = ref false in
  (match
     Fault_plan.wrap p ~site:"s" (fun () ->
         ran := true;
         Ok "payload")
   with
  | Error (Fault.Permanent _) -> ()
  | _ -> Alcotest.fail "expected injected permanent fault");
  Alcotest.(check bool) "thunk preempted" false !ran;
  (* a corrupt-only plan runs the thunk and mangles the payload *)
  let p = Fault_plan.create ~corrupt:1.0 ~seed:1 () in
  (match
     Fault_plan.wrap p ~site:"s" ~corrupt:(fun s -> String.uppercase_ascii s) (fun () ->
         Ok "payload")
   with
  | Ok "PAYLOAD" -> ()
  | Ok other -> Alcotest.fail ("expected mangled payload, got " ^ other)
  | Error e -> Alcotest.fail (Fault.to_string e));
  (* fault-free plan passes results and maps exceptions *)
  (match Fault_plan.wrap Fault_plan.none ~site:"s" (fun () -> Ok 42) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "none plan should pass the result through");
  match Fault_plan.wrap Fault_plan.none ~site:"s" (fun () -> failwith "boom") with
  | Error (Fault.Permanent _) -> ()
  | _ -> Alcotest.fail "escaping exception should map to Permanent"

(* ---------------- Retry ---------------- *)

let qcheck_retry_delays_reproducible =
  QCheck.Test.make ~name:"backoff delay sequence reproduces for a fixed seed" ~count:100
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let p = Retry.default in
      let a = Retry.delays p ~rng:(Kondo_prng.Rng.create seed) n in
      let b = Retry.delays p ~rng:(Kondo_prng.Rng.create seed) n in
      a = b)

let qcheck_retry_delays_bounded =
  QCheck.Test.make ~name:"each backoff delay respects cap and jitter floor" ~count:100
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let p = Retry.default in
      let ds = Retry.delays p ~rng:(Kondo_prng.Rng.create seed) n in
      List.for_all2
        (fun d attempt ->
          let ideal =
            Float.min p.Retry.max_delay_ms
              (p.Retry.base_delay_ms *. (p.Retry.multiplier ** float_of_int (attempt - 1)))
          in
          d <= ideal +. 1e-9 && d >= (ideal *. (1.0 -. p.Retry.jitter)) -. 1e-9)
        ds
        (List.init n (fun i -> i + 1)))

let test_retry_succeeds_after_transients () =
  let failures = 3 in
  let o =
    Retry.run
      { Retry.default with Retry.max_attempts = 10 }
      ~rng:(Kondo_prng.Rng.create 1)
      (fun ~attempt ->
        if attempt <= failures then Error (Fault.Transient "flaky") else Ok attempt)
  in
  (match o.Retry.result with
  | Ok a -> Alcotest.(check int) "succeeded on attempt" (failures + 1) a
  | Error e -> Alcotest.fail (Fault.to_string e));
  Alcotest.(check int) "retries counted" failures (Retry.retries o);
  Alcotest.(check bool) "virtual time advanced" true (o.Retry.elapsed_ms > 0.0)

let test_retry_fatal_stops () =
  let calls = ref 0 in
  let o =
    Retry.run Retry.default ~rng:(Kondo_prng.Rng.create 1) (fun ~attempt:_ ->
        incr calls;
        Error (Fault.Permanent "gone"))
  in
  Alcotest.(check int) "one attempt only" 1 !calls;
  match o.Retry.result with
  | Error (Fault.Permanent _) -> ()
  | _ -> Alcotest.fail "expected the permanent error back"

let test_retry_deadline_cuts () =
  (* timeouts cost 1000 ms each against a 1500 ms budget: the second
     failure leaves no room for another backoff *)
  let policy =
    { Retry.max_attempts = 100; base_delay_ms = 10.0; max_delay_ms = 10.0;
      multiplier = 1.0; jitter = 0.0; deadline_ms = 1500.0 }
  in
  let o =
    Retry.run policy ~rng:(Kondo_prng.Rng.create 1) (fun ~attempt:_ ->
        Error (Fault.Timeout { cost_ms = 1000.0 }))
  in
  Alcotest.(check bool) "far fewer than max_attempts" true (o.Retry.attempts <= 2);
  match o.Retry.result with
  | Error (Fault.Timeout _) -> ()
  | _ -> Alcotest.fail "expected the last timeout back"

(* ---------------- Breaker ---------------- *)

let test_breaker_state_machine () =
  let config =
    { Breaker.failure_threshold = 3; cooldown_ms = 100.0; success_threshold = 2 }
  in
  let b = Breaker.create ~config () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  (* closed → open after [failure_threshold] consecutive failures *)
  for _ = 1 to 3 do
    Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now_ms:0.0);
    Breaker.record_failure b ~now_ms:0.0
  done;
  Alcotest.(check bool) "tripped open" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "trip counted" 1 (Breaker.stats b).Breaker.trips;
  (* open refuses until the cooldown elapses *)
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now_ms:50.0);
  Alcotest.(check int) "rejection counted" 1 (Breaker.stats b).Breaker.rejections;
  (* cooldown elapsed → half-open probe *)
  Alcotest.(check bool) "half-open probe allowed" true (Breaker.allow b ~now_ms:150.0);
  Alcotest.(check bool) "now half-open" true (Breaker.state b = Breaker.Half_open);
  (* a probe failure re-opens *)
  Breaker.record_failure b ~now_ms:150.0;
  Alcotest.(check bool) "probe failure re-opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "second trip" 2 (Breaker.stats b).Breaker.trips;
  (* cooldown again, then enough probe successes close it *)
  Alcotest.(check bool) "second probe" true (Breaker.allow b ~now_ms:300.0);
  Breaker.record_success b;
  Alcotest.(check bool) "one success keeps half-open" true
    (Breaker.state b = Breaker.Half_open);
  Breaker.record_success b;
  Alcotest.(check bool) "recovered closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "recovery counted" 1 (Breaker.stats b).Breaker.recoveries

(* ---------------- Guard ---------------- *)

let test_guard_run () =
  let session plan = Guard.session (Result.get_ok (Fault_plan.of_string plan)) in
  let closed = Breaker.create () in
  (* every attempt faulted: the policy's 4 attempts, 3 of them retries *)
  (match
     Guard.run closed (session "seed=1,transient=1.0") ~site:"g" (fun () -> Ok 1)
       ~check:Result.ok
   with
  | Guard.Ran { result = Error (Fault.Transient _); retries = 3 } -> ()
  | _ -> Alcotest.fail "expected a transient failure after 3 retries");
  (* [check] sees the payload as the plan mangled it *)
  let seen = ref [] in
  (match
     Guard.run closed (session "seed=1,corrupt=1.0") ~site:"g" ~corrupt:(fun v -> -v)
       (fun () -> Ok 5)
       ~check:(fun v ->
         seen := v :: !seen;
         if v > 0 then Ok v else Error (Fault.Corrupt "negative"))
   with
  | Guard.Ran { result = Error (Fault.Corrupt _); retries = 3 } ->
    Alcotest.(check (list int)) "check saw every corrupted payload" [ -5; -5; -5; -5 ] !seen
  | _ -> Alcotest.fail "expected a corrupt failure after 3 retries")

(* One session, one virtual clock: a refused call stops nothing but
   advances no time, while calls through another breaker of the same
   session move the clock that ends the first breaker's cooldown. *)
let test_guard_shares_clock () =
  let s = Guard.session (Fault_plan.create ~permanent:1.0 ~seed:1 ()) in
  let config = { Breaker.failure_threshold = 1; cooldown_ms = 10.0; success_threshold = 1 } in
  let a = Breaker.create ~config () in
  let b = Breaker.create ~config:{ config with Breaker.failure_threshold = max_int } () in
  let run br = Guard.run br s ~site:"g" (fun () -> Ok ()) ~check:Result.ok in
  (* a permanent fault: one attempt of 1 ms, plus the clock's 1 ms step *)
  (match run a with
  | Guard.Ran { result = Error (Fault.Permanent _); retries = 0 } -> ()
  | _ -> Alcotest.fail "expected one permanent failure");
  for _ = 1 to 3 do
    Alcotest.(check bool) "open: refused" true (run a = Guard.Refused)
  done;
  Alcotest.(check int) "refusals counted by the breaker" 3 (Breaker.stats a).Breaker.rejections;
  (* 4 calls through b: 8 ms of shared clock, short of a's cooldown *)
  for _ = 1 to 4 do ignore (run b) done;
  Alcotest.(check bool) "still cooling down" true (run a = Guard.Refused);
  ignore (run b);
  Alcotest.(check bool) "cooled down on the shared clock" true (run a <> Guard.Refused);
  Alcotest.(check int) "the failed probe re-opened a" 2 (Breaker.stats a).Breaker.trips

(* ---------------- Frame ---------------- *)

let test_frame_roundtrip () =
  let payloads = [ "alpha"; ""; "a longer payload with \x00 bytes \xff inside" ] in
  let path = Filename.temp_file "kondo_frame" ".bin" in
  let oc = open_out_bin path in
  List.iter (Frame.write oc) payloads;
  close_out oc;
  let got, intact = Frame.read_all (Frame.read_file path) ~pos:0 in
  Alcotest.(check (list string)) "payloads roundtrip" payloads got;
  Alcotest.(check bool) "intact" true intact;
  Sys.remove path

let test_frame_truncate_every_byte () =
  let payloads = [ "first"; "second"; "third" ] in
  let path = Filename.temp_file "kondo_frame" ".bin" in
  let oc = open_out_bin path in
  List.iter (Frame.write oc) payloads;
  close_out oc;
  let full = Frame.read_file path in
  Sys.remove path;
  let n = Bytes.length full in
  for cut = 0 to n do
    let got, intact = Frame.read_all (Bytes.sub full 0 cut) ~pos:0 in
    (* salvages a prefix of the payload list, never crashes *)
    let is_prefix =
      List.length got <= List.length payloads
      && List.for_all2 ( = ) got (List.filteri (fun i _ -> i < List.length got) payloads)
    in
    Alcotest.(check bool) (Printf.sprintf "prefix at cut %d" cut) true is_prefix;
    if cut = n then (
      Alcotest.(check bool) "full read intact" true intact;
      Alcotest.(check int) "all frames" (List.length payloads) (List.length got))
  done

let test_frame_corrupt_byte () =
  let path = Filename.temp_file "kondo_frame" ".bin" in
  let oc = open_out_bin path in
  List.iter (Frame.write oc) [ "first"; "second" ];
  close_out oc;
  let full = Frame.read_file path in
  Sys.remove path;
  (* flip a payload byte of the second frame: first frame still salvaged *)
  let mangled = Bytes.copy full in
  let pos = Bytes.length mangled - 1 in
  Bytes.set mangled pos (Char.chr (Char.code (Bytes.get mangled pos) lxor 0xff));
  let got, intact = Frame.read_all mangled ~pos:0 in
  Alcotest.(check (list string)) "prefix before corruption" [ "first" ] got;
  Alcotest.(check bool) "not intact" false intact

let test_atomic_write_protects_previous () =
  let path = Filename.temp_file "kondo_atomic" ".bin" in
  Frame.atomic_write path (fun oc -> Frame.write oc "original");
  (try Frame.atomic_write path (fun _ -> failwith "writer crashed") with
  | Failure _ -> ());
  let got, intact = Frame.read_all (Frame.read_file path) ~pos:0 in
  Alcotest.(check (list string)) "previous state intact" [ "original" ] got;
  Alcotest.(check bool) "intact" true intact;
  Alcotest.(check bool) "no temp litter" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

(* ---------------- Event_log salvage ---------------- *)

let mk_events n =
  List.init n (fun i ->
      { Kondo_audit.Event.seq = i; pid = 100 + (i mod 3);
        path = (if i mod 2 = 0 then "/data/a.kh5" else "/data/b.kh5");
        op = Kondo_audit.Event.Read; offset = i * 64; size = 16 })

let test_event_log_truncate_every_byte () =
  let events = mk_events 12 in
  let path = Filename.temp_file "kondo_elog" ".bin" in
  Kondo_audit.Event_log.save path events;
  let ic = open_in_bin path in
  let full = Bytes.create (in_channel_length ic) in
  really_input ic full 0 (Bytes.length full);
  close_in ic;
  let n = Bytes.length full in
  for cut = 0 to n do
    let oc = open_out_bin path in
    output_bytes oc (Bytes.sub full 0 cut);
    close_out oc;
    let got, intact = Kondo_audit.Event_log.load_salvage path in
    let is_prefix =
      List.length got <= List.length events
      && List.for_all2 ( = ) got (List.filteri (fun i _ -> i < List.length got) events)
    in
    Alcotest.(check bool) (Printf.sprintf "event prefix at cut %d" cut) true is_prefix;
    if cut = n then (
      Alcotest.(check bool) "full log intact" true intact;
      Alcotest.(check int) "all events" (List.length events) (List.length got))
  done;
  Sys.remove path

(* ---------------- Campaign salvage ---------------- *)

let test_campaign_truncate_every_byte () =
  let p = Kondo_workload.Stencils.cs ~n:16 1 in
  let config =
    { Kondo_core.Config.default with Kondo_core.Config.seed = 3; max_iter = 200;
      stop_iter = 200 }
  in
  let c =
    Kondo_core.Campaign.extend ~config p (Kondo_core.Campaign.fresh p) 2
  in
  let observed = Kondo_core.Campaign.observed c in
  let path = Filename.temp_file "kondo_camp" ".bin" in
  Kondo_core.Campaign.save c path;
  let ic = open_in_bin path in
  let full = Bytes.create (in_channel_length ic) in
  really_input ic full 0 (Bytes.length full);
  close_in ic;
  let n = Bytes.length full in
  for cut = 0 to n do
    let oc = open_out_bin path in
    output_bytes oc (Bytes.sub full 0 cut);
    close_out oc;
    let s, intact = Kondo_core.Campaign.salvage p path in
    (* salvage never invents observations and never crashes *)
    Alcotest.(check bool)
      (Printf.sprintf "salvaged subset at cut %d" cut)
      true
      (Kondo_dataarray.Index_set.subset (Kondo_core.Campaign.observed s) observed);
    if cut = n then (
      Alcotest.(check bool) "full state intact" true intact;
      Alcotest.(check bool) "full state equal" true
        (Kondo_dataarray.Index_set.equal (Kondo_core.Campaign.observed s) observed);
      Alcotest.(check int) "rounds kept" (Kondo_core.Campaign.rounds c)
        (Kondo_core.Campaign.rounds s))
  done;
  (* a salvaged torn state still extends to a working campaign *)
  let oc = open_out_bin path in
  output_bytes oc (Bytes.sub full 0 (n / 2));
  close_out oc;
  let s, intact = Kondo_core.Campaign.salvage p path in
  Alcotest.(check bool) "half a file is not intact" false intact;
  let resumed = Kondo_core.Campaign.extend ~config p s 1 in
  Alcotest.(check bool) "resumed campaign observes data" true
    (Kondo_dataarray.Index_set.cardinal (Kondo_core.Campaign.observed resumed) > 0);
  Sys.remove path

let test_campaign_wrong_program_rejected () =
  let p = Kondo_workload.Stencils.cs ~n:16 1 in
  let other = Kondo_workload.Stencils.ldc2d ~n:16 () in
  let path = Filename.temp_file "kondo_camp" ".bin" in
  Kondo_core.Campaign.save (Kondo_core.Campaign.fresh p) path;
  (try
     ignore (Kondo_core.Campaign.salvage other path);
     Alcotest.fail "wrong program must raise, not salvage"
   with Invalid_argument _ -> ());
  Sys.remove path

let suite =
  ( "faults",
    [ Alcotest.test_case "fault classification" `Quick test_fault_classify;
      QCheck_alcotest.to_alcotest qcheck_plan_reproducible;
      QCheck_alcotest.to_alcotest qcheck_plan_site_independent;
      QCheck_alcotest.to_alcotest qcheck_plan_decide_at_pure;
      Alcotest.test_case "plan spec roundtrip" `Quick test_plan_spec_roundtrip;
      Alcotest.test_case "plan wrap semantics" `Quick test_plan_wrap;
      QCheck_alcotest.to_alcotest qcheck_retry_delays_reproducible;
      QCheck_alcotest.to_alcotest qcheck_retry_delays_bounded;
      Alcotest.test_case "retry succeeds after transients" `Quick
        test_retry_succeeds_after_transients;
      Alcotest.test_case "retry stops on fatal" `Quick test_retry_fatal_stops;
      Alcotest.test_case "retry deadline budget" `Quick test_retry_deadline_cuts;
      Alcotest.test_case "breaker state machine" `Quick test_breaker_state_machine;
      Alcotest.test_case "guard retries and checks" `Quick test_guard_run;
      Alcotest.test_case "guard session shares one clock" `Quick test_guard_shares_clock;
      Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame truncate every byte" `Quick test_frame_truncate_every_byte;
      Alcotest.test_case "frame corrupt byte" `Quick test_frame_corrupt_byte;
      Alcotest.test_case "atomic write protects previous" `Quick
        test_atomic_write_protects_previous;
      Alcotest.test_case "event log truncate every byte" `Quick
        test_event_log_truncate_every_byte;
      Alcotest.test_case "campaign truncate every byte" `Quick
        test_campaign_truncate_every_byte;
      Alcotest.test_case "campaign wrong program rejected" `Quick
        test_campaign_wrong_program_rejected ] )
