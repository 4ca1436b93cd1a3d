type error =
  | Transient of string
  | Timeout of { cost_ms : float }
  | Corrupt of string
  | Permanent of string

let is_retryable = function
  | Transient _ | Timeout _ | Corrupt _ -> true
  | Permanent _ -> false

let cost_ms = function
  | Timeout { cost_ms } -> cost_ms
  | Transient _ | Corrupt _ | Permanent _ -> 1.0

let to_string = function
  | Transient msg -> Printf.sprintf "transient: %s" msg
  | Timeout { cost_ms } -> Printf.sprintf "timeout after %.0fms" cost_ms
  | Corrupt msg -> Printf.sprintf "corrupt: %s" msg
  | Permanent msg -> Printf.sprintf "permanent: %s" msg

let of_exn = function
  | Sys_error msg -> Transient (Printf.sprintf "io error (%s)" msg)
  | Out_of_memory as e -> raise e
  | Stack_overflow as e -> raise e
  | exn -> Permanent (Printexc.to_string exn)
