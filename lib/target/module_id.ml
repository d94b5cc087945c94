(** The seven function modules of a compiler backend (paper Fig. 6):
    instruction selection, register allocation support, optimization
    hooks, scheduling, code emission, assembly parsing and
    disassembly. Every interface-function spec in {!Vega_corpus} is
    tagged with exactly one of these. *)

type t = SEL | REG | OPT | SCH | EMI | ASS | DIS

let all = [ SEL; REG; OPT; SCH; EMI; ASS; DIS ]

let name = function
  | SEL -> "SEL"
  | REG -> "REG"
  | OPT -> "OPT"
  | SCH -> "SCH"
  | EMI -> "EMI"
  | ASS -> "ASS"
  | DIS -> "DIS"

let of_name = function
  | "SEL" -> Some SEL
  | "REG" -> Some REG
  | "OPT" -> Some OPT
  | "SCH" -> Some SCH
  | "EMI" -> Some EMI
  | "ASS" -> Some ASS
  | "DIS" -> Some DIS
  | _ -> None

let compare (a : t) (b : t) = compare a b
