let exact_bound = 1 lsl 16
let block_bits = 8
let block = 1 lsl block_bits

(* Overflow octave [k] holds samples in [2^(k+16), 2^(k+17)); the last
   one ends at max_int. *)
let octave_base = 16
let n_octaves = Sys.int_size - 1 - octave_base

type t = {
  mutable exact : int array;  (* exact.(x) = samples equal to x; grows *)
  blocks : int array;  (* blocks.(b) = sum of exact.(b*block .. +block-1) *)
  octaves : int array;
  mutable n : int;
  mutable total : int;
  mutable lo : int;  (* max_int while empty *)
  mutable hi : int;
}

let create () =
  { exact = Array.make 16 0;
    blocks = Array.make (exact_bound / block) 0;
    octaves = Array.make n_octaves 0;
    n = 0;
    total = 0;
    lo = max_int;
    hi = 0 }

let grow t x =
  let len = ref (Array.length t.exact) in
  while !len <= x do
    len := 2 * !len
  done;
  let bigger = Array.make !len 0 in
  Array.blit t.exact 0 bigger 0 (Array.length t.exact);
  t.exact <- bigger

let octave x =
  let k = ref octave_base in
  while x lsr (!k + 1) > 0 do
    incr k
  done;
  !k - octave_base

let add t x =
  if x < 0 then invalid_arg "Histogram.add: negative sample";
  t.n <- t.n + 1;
  t.total <- t.total + x;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  if x < exact_bound then begin
    if x >= Array.length t.exact then grow t x;
    t.exact.(x) <- t.exact.(x) + 1;
    let b = x lsr block_bits in
    t.blocks.(b) <- t.blocks.(b) + 1
  end
  else
    let k = octave x in
    t.octaves.(k) <- t.octaves.(k) + 1

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then 0. else float_of_int t.total /. float_of_int t.n
let min t = if t.n = 0 then 0 else t.lo
let max t = t.hi

(* The [r]-th smallest sample (0-based, [r < n]): block totals first,
   then the cells of one block, so at most a few hundred reads. In an
   overflow octave the rank is interpolated linearly across the bucket,
   clamped to the observed range. *)
let order_stat t r =
  let nblocks = (Array.length t.exact + block - 1) / block in
  let cum = ref 0 and b = ref 0 in
  while !b < nblocks && !cum + t.blocks.(!b) <= r do
    cum := !cum + t.blocks.(!b);
    incr b
  done;
  if !b < nblocks then begin
    let i = ref (!b * block) in
    while !cum + t.exact.(!i) <= r do
      cum := !cum + t.exact.(!i);
      incr i
    done;
    float_of_int !i
  end
  else begin
    let k = ref 0 in
    while !cum + t.octaves.(!k) <= r do
      cum := !cum + t.octaves.(!k);
      incr k
    done;
    let lo = Float.max (Float.ldexp 1. (!k + octave_base)) (float_of_int t.lo) in
    let hi = Float.min (Float.ldexp 2. (!k + octave_base)) (float_of_int t.hi) in
    lo
    +. (hi -. lo)
       *. (float_of_int (r - !cum + 1) /. float_of_int t.octaves.(!k))
  end

let quantile t q =
  if t.n = 0 then invalid_arg "Histogram.quantile: empty";
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Histogram.quantile: q out of range";
  let pos = q *. float_of_int (t.n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then order_stat t lo
  else
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. order_stat t lo) +. (frac *. order_stat t hi)

let merge a b =
  let small, large =
    if Array.length a.exact <= Array.length b.exact then (a, b) else (b, a)
  in
  let exact = Array.copy large.exact in
  Array.iteri (fun i c -> exact.(i) <- exact.(i) + c) small.exact;
  { exact;
    blocks = Array.map2 ( + ) a.blocks b.blocks;
    octaves = Array.map2 ( + ) a.octaves b.octaves;
    n = a.n + b.n;
    total = a.total + b.total;
    lo = Int.min a.lo b.lo;
    hi = Int.max a.hi b.hi }

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "p50=%.4g p90=%.4g p99=%.4g max=%.4g" (quantile t 0.5)
      (quantile t 0.9) (quantile t 0.99) (float_of_int t.hi)
