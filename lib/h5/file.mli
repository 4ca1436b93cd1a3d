open Kondo_dataarray
open Kondo_audit

(** KH5 file reader: the data-access path of the benchmark programs.

    Every byte read flows through an {!Io_port}, so wrapping the port
    with {!Tracer.wrap} audits the reader exactly the way Sciunit's
    interposition audits HDF5's [read] calls (paper §IV-C, §V-D6).

    Reading a sparse (debloated) dataset at an index whose bytes were
    carved away raises {!Data_missing} — the paper's "data missing"
    exception (§III). *)

type t

type missing = { path : string; dataset : string; index : int array; offset : int }

exception Data_missing of missing

val open_port : Io_port.t -> t
(** Parse a KH5 file from a port.  @raise Binio.Corrupt on bad input. *)

val open_file : ?tracer:Tracer.t -> ?pid:int -> string -> t
(** Open from disk; with [~tracer] all reads (header parsing included)
    are audited under [pid] (default 1). *)

val close : t -> unit

val path : t -> string

val datasets : t -> Dataset.t list
(** In file order. *)

val find : t -> string -> Dataset.t
(** @raise Not_found for unknown dataset names. *)

val read_element : t -> string -> int array -> float
(** One element.  @raise Data_missing on carved-away data. *)

val read_slab : t -> string -> Hyperslab.t -> (int array -> float -> unit) -> unit
(** Visit every in-bounds element of a hyperslab selection.  Dense
    datasets are read in batched contiguous runs (one [pread] per run,
    like an application reading [nbytes] at [startoff] — Fig. 2b);
    sparse datasets fall back to per-element reads.
    @raise Data_missing on carved-away data. *)

val mean_slab : t -> string -> Hyperslab.t -> float
(** Convenience reduction used by examples: mean of selected elements. *)

val read_raw : t -> string -> Kondo_interval.Interval.t -> bytes
(** Raw bytes of a logical data-section range (used when packing
    debloated files and when serving a miss from a source file).
    @raise Data_missing when a sparse dataset does not hold the whole
    range; [index] is the element at the range start ([[||]] in a
    chunk's padding).
    @raise Invalid_argument on out-of-section ranges. *)

val file_size : t -> int
(** Total on-disk size in bytes. *)

val verify : t -> string -> bool
(** Recompute the stored data section's CRC-32 and compare with the
    header's — detects silent corruption of a dataset's bytes. *)

val verify_all : t -> bool
