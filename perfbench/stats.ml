(* Order statistics over float samples.  Percentiles are nearest-rank,
   so every reported value is one that was measured. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [p] in [0, 1]; nan on an empty sample. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

let percentile a p = rank (sorted a) p
let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let sum a = Array.fold_left ( +. ) 0. a

(* Ratio that reads 0 when nothing was attempted. *)
let ratio num den = if den = 0. then 0. else num /. den
