type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
  cooldown_ms : float;
  success_threshold : int;
}

let default = { failure_threshold = 5; cooldown_ms = 1000.0; success_threshold = 2 }

type stats = { trips : int; recoveries : int; rejections : int }

type t = {
  config : config;
  mutable state : state;
  mutable consecutive_failures : int;
  mutable half_open_successes : int;
  mutable opened_at_ms : float;
  trips : Kondo_obs.Registry.counter;
  recoveries : Kondo_obs.Registry.counter;
  rejections : Kondo_obs.Registry.counter;
}

(* Each transition is counted once, by this breaker's own counter, whose
   increments also reach the process-wide total over every breaker. *)
let counter name help = Kondo_obs.Registry.(child ~help default name)

let create ?(config = default) () =
  if config.failure_threshold < 1 then invalid_arg "Breaker: failure_threshold must be >= 1";
  if config.success_threshold < 1 then invalid_arg "Breaker: success_threshold must be >= 1";
  if config.cooldown_ms < 0.0 then invalid_arg "Breaker: negative cooldown";
  { config;
    state = Closed;
    consecutive_failures = 0;
    half_open_successes = 0;
    opened_at_ms = 0.0;
    trips = counter "kondo_breaker_trips_total" "Circuit-breaker trips (any breaker)";
    recoveries =
      counter "kondo_breaker_recoveries_total"
        "Circuit-breaker half-open recoveries (any breaker)";
    rejections =
      counter "kondo_breaker_rejections_total"
        "Calls refused by an open circuit breaker (any breaker)" }

let state t = t.state

let stats t : stats =
  let v = Kondo_obs.Registry.counter_value in
  { trips = v t.trips; recoveries = v t.recoveries; rejections = v t.rejections }

let trip t ~now_ms =
  t.state <- Open;
  t.opened_at_ms <- now_ms;
  t.consecutive_failures <- 0;
  t.half_open_successes <- 0;
  Kondo_obs.Registry.inc t.trips

let allow t ~now_ms =
  match t.state with
  | Closed -> true
  | Half_open -> true
  | Open ->
    if now_ms -. t.opened_at_ms >= t.config.cooldown_ms then begin
      t.state <- Half_open;
      t.half_open_successes <- 0;
      true
    end
    else begin
      Kondo_obs.Registry.inc t.rejections;
      false
    end

let record_success t =
  match t.state with
  | Closed -> t.consecutive_failures <- 0
  | Half_open ->
    t.half_open_successes <- t.half_open_successes + 1;
    if t.half_open_successes >= t.config.success_threshold then begin
      t.state <- Closed;
      t.consecutive_failures <- 0;
      t.half_open_successes <- 0;
      Kondo_obs.Registry.inc t.recoveries
    end
  | Open -> ()

let record_failure t ~now_ms =
  match t.state with
  | Closed ->
    t.consecutive_failures <- t.consecutive_failures + 1;
    if t.consecutive_failures >= t.config.failure_threshold then trip t ~now_ms
  | Half_open -> trip t ~now_ms
  | Open -> ()
