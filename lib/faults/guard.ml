type session = {
  retry : Retry.policy;
  faults : Fault_plan.t;
  rng : Kondo_prng.Rng.t; (* jitter stream: seeded from the plan, advanced per retry *)
  mutable now_ms : float; (* virtual clock fed by retry outcomes *)
}

let session ?(retry = Retry.default) faults =
  Retry.validate retry;
  { retry; faults; rng = Kondo_prng.Rng.create (Fault_plan.seed faults); now_ms = 0.0 }

type 'b outcome =
  | Refused
  | Ran of { result : ('b, Fault.error) result; retries : int }

let run breaker s ~site ?shorten ?corrupt attempt ~check =
  if not (Breaker.allow breaker ~now_ms:s.now_ms) then Refused
  else begin
    let o =
      Retry.run s.retry ~rng:s.rng (fun ~attempt:_ ->
          Result.bind (Fault_plan.wrap s.faults ~site ?shorten ?corrupt attempt) check)
    in
    s.now_ms <- s.now_ms +. o.Retry.elapsed_ms +. 1.0;
    (match o.Retry.result with
    | Ok _ -> Breaker.record_success breaker
    | Error _ -> Breaker.record_failure breaker ~now_ms:s.now_ms);
    Ran { result = o.Retry.result; retries = Retry.retries o }
  end
