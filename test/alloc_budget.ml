(* The allocation-budget measuring loop shared by the test suites.

   [measure ~submit ~drain n] runs two rounds — a warm-up that grows
   every ring and pool the loop touches, then the measured one.  A round
   calls [submit i] for [i] = 1 .. [n], then [drain ()] (typically
   [Sim.run]) to finish the submitted work, with [Gc.minor_words] read
   around each of the two phases.  The result is the measured round's
   minor words per submission in each phase. *)

type words = { submit : float; drain : float }

let measure ~submit ~drain n =
  let round () =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      submit i
    done;
    let w1 = Gc.minor_words () in
    drain ();
    let w2 = Gc.minor_words () in
    let per w = w /. float_of_int n in
    { submit = per (w1 -. w0); drain = per (w2 -. w1) }
  in
  ignore (round () : words);
  round ()
