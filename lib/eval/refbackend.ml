(** Reference backends: hooks/conventions assembled from the corpus's
    reference implementations — the "base compiler" of Sec. 4.1.4 that
    pass@1 substitutes generated functions into. *)

module B = Vega_backend

let backend_for vfs (p : Vega_target.Profile.t) =
  let hooks =
    B.Hooks.create vfs ~target:p.Vega_target.Profile.name
      ~sources:(Vega_corpus.Corpus.reference_sources p)
  in
  (hooks, B.Conv.make hooks)
