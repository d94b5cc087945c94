(** Textual VIR parser, inverse of the printers in {!Vir}.

    Grammar (line-oriented):
    {v
    global @name[size] = {1, 2, 3}
    func @main(%r0, %r1) {
    entry:
      %r2 = add %r0, 4
      %r3 = load %r2, 0
      store %r3, %r2, 4
      print %r3
      breq %r3, 0, done, loop
    done:
      ret 0
    }
    v} *)

exception Error of string

val parse : string -> Vir.modul
(** @raise Error with a line number on malformed input. *)
