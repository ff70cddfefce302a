(** Which execution engine runs verified kernel/module images.

    Both engines run the same linked, verified image and charge
    byte-identical simulated cycles, events and trajectories; the
    choice only affects host time:

    - [Compiled] runs the load-time closure translation
      ({!Exec_compile}) of the linked image.  The production engine:
      every node boots with it unless a test asks otherwise.
    - [Slots] interprets the linked, slot-allocated image
      ({!Executor}).  The reference for the full cost model, kept as
      the oracle that parity tests, goldens and the differential fuzz
      select explicitly.

    The IR interpreter ({!Vg_ir.Interp}) is not a kernel engine; it is
    the compiler tests' oracle for the instrumented IR. *)

type t = Slots | Compiled

val all : t list
val to_string : t -> string
