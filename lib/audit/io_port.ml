type t = {
  path : string;
  size : unit -> int;
  pread : int -> int -> bytes;
  close : unit -> unit;
}

let of_bytes ~path buf =
  { path;
    size = (fun () -> Bytes.length buf);
    pread =
      (fun off len ->
        if off < 0 || len < 0 || off + len > Bytes.length buf then
          invalid_arg "Io_port.pread: out of range";
        Bytes.sub buf off len);
    close = (fun () -> ()) }

(* The length is read once: a hit then costs no [lseek] for a bounds
   check.  A file cut short while open still fails as out of range. *)
let of_file path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  { path;
    size = (fun () -> size);
    pread =
      (fun off len ->
        if off < 0 || len < 0 || off + len > size then
          invalid_arg "Io_port.pread: out of range";
        seek_in ic off;
        let buf = Bytes.create len in
        (try really_input ic buf 0 len
         with End_of_file -> invalid_arg "Io_port.pread: out of range");
        buf);
    close = (fun () -> close_in ic) }

let with_file path f =
  let port = of_file path in
  Fun.protect ~finally:port.close (fun () -> f port)
