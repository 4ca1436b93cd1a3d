open Kondo_dataarray

(** The containerized application X̄ under test.

    A program is modeled by its {e access plan}: the list of hyperslab
    selections it reads from its data array when run with a parameter
    value [v] (paper §III: the index subset [I_v] depends only on [v]).
    From that single description derive:

    - the {b debloat test} (Definition 2): enumerate [I_v] without real
      I/O — the pre-processed "print offsets instead of reading" form the
      paper's evaluation methodology uses (§V-C);
    - {b real audited execution}: perform the plan's reads against a KH5
      file, for the I/O-overhead experiment (§V-D6) and the user-side
      runtime;
    - {b AFL pseudo-branches}: one edge per accessed index, the paper's
      re-targeting of code coverage to index coverage (§V-C);
    - {b ground truth} [I_Θ]: exhaustively or analytically. *)

type t = {
  name : string;
  description : string;
  shape : Shape.t;                       (** the data array [D] *)
  dtype : Dtype.t;
  param_space : (float * float) array;   (** Θ, inclusive ranges *)
  plan : float array -> Hyperslab.t list;
      (** access plan for one parameter value; [\[\]] when not useful *)
  truth : (int array -> bool) option;    (** analytic ground-truth predicate *)
  dataset : string;                      (** dataset name inside the KH5 file *)
}

val arity : t -> int

val clamp_params : t -> float array -> float array
(** Round to integers and clamp into Θ (all benchmark programs take
    integer parameters). *)

val in_space : t -> float array -> bool

val access : t -> float array -> Index_set.t
(** The debloat test: [I_v], clipped to the array bounds. *)

val is_useful : t -> float array -> bool
(** [I_v <> ∅] (Definition 2 discussion). *)

val iter_access : t -> float array -> (int array -> unit) -> unit
(** Stream [I_v] without materializing; indices may repeat. *)

val coverage : t -> float array -> (int -> unit) -> unit
(** AFL edge stream: a guard edge (0 when not useful, 1 when useful)
    followed by one edge per accessed index (2 + linearized index). *)

val run_io : t -> Kondo_h5.File.t -> float array -> int
(** Execute the plan with real reads against a KH5 file; returns the
    number of elements read.  @raise Kondo_h5.File.Data_missing on
    debloated files lacking a needed offset. *)

val exhaustive_truth : t -> Index_set.t
(** [I_Θ] by running the debloat test on {e every} integer parameter
    valuation in Θ — exact, possibly slow. *)

val ground_truth : t -> Index_set.t
(** The analytic predicate rasterized when present, else
    {!exhaustive_truth}.  Memoized per program value (physical equality)
    in an ephemeron table: the entry is dropped once the program value is
    garbage, so renamed or rebuilt programs do not accumulate truth sets.
    A structurally equal but distinct program value recomputes it. *)

val param_count : t -> int
(** |Θ| as a count of integer valuations. *)

val iter_param_space : t -> (float array -> unit) -> unit
(** Every integer valuation of Θ in row-major order (buffer reused). *)

val with_dataset : t -> string -> t
(** The same program reading a differently-named dataset — used to
    compose multi-dataset applications (paper footnote 1). *)
