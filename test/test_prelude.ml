(* Unit and property tests for the prelude: Rng, Stats, Histogram,
   Timeseries, Util. *)

module Rng = Dps_prelude.Rng
module Stats = Dps_prelude.Stats
module Histogram = Dps_prelude.Histogram
module Timeseries = Dps_prelude.Timeseries
module Util = Dps_prelude.Util

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-2))

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:123 () and b = Rng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:2 () in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create ~seed:9 () in
  let b = Rng.split a in
  (* Draws from the parent must not disturb the child's stream. *)
  let c = Rng.create ~seed:9 () in
  let d = Rng.split c in
  ignore (Rng.int c 100);
  let xs = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int d 1_000_000) in
  Alcotest.(check (list int)) "child stream unaffected" xs ys

let test_rng_int_range () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_rng_int_in_range () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng 3 9 in
    Alcotest.(check bool) "in [3,9]" true (x >= 3 && x <= 9)
  done

let test_rng_int_in_singleton () =
  let rng = Rng.create () in
  Alcotest.(check int) "degenerate range" 5 (Rng.int_in rng 5 5)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.);
    Alcotest.(check bool) "p<0 never" false (Rng.bernoulli rng (-0.5));
    Alcotest.(check bool) "p>1 always" true (Rng.bernoulli rng 1.5)
  done

let test_rng_bernoulli_mean () =
  let rng = Rng.create ~seed:5 () in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_float_loose "empirical mean" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_geometric_support () =
  let rng = Rng.create () in
  for _ = 1 to 500 do
    Alcotest.(check bool) ">= 1" true (Rng.geometric rng 0.5 >= 1)
  done;
  Alcotest.(check int) "p=1 is 1" 1 (Rng.geometric rng 1.)

let test_rng_geometric_mean () =
  let rng = Rng.create ~seed:11 () in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng 0.25
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 4" true (mean > 3.8 && mean < 4.2)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13 () in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 2.
  done;
  let mean = total.contents /. float_of_int n in
  Alcotest.(check bool) "mean close to 1/2" true (mean > 0.47 && mean < 0.53)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:3 () in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_choose_member () =
  let rng = Rng.create () in
  let a = [| 2; 4; 8 |] in
  for _ = 1 to 100 do
    let x = Rng.choose rng a in
    Alcotest.(check bool) "member" true (Array.exists (fun y -> y = x) a)
  done

let test_rng_sample_without_replacement () =
  let rng = Rng.create ~seed:21 () in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng ~n:10 ~k:5 in
    Alcotest.(check int) "size" 5 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    let distinct = ref true in
    for i = 0 to 3 do
      if sorted.(i) = sorted.(i + 1) then distinct := false
    done;
    Alcotest.(check bool) "distinct" true !distinct;
    Array.iter
      (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 10))
      s
  done

let test_rng_sample_full () =
  let rng = Rng.create () in
  let s = Rng.sample_without_replacement rng ~n:6 ~k:6 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "full sample is permutation"
    (Array.init 6 Fun.id) sorted

(* ---------------------------------------------------------------- Stats *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  check_float "mean" 0. (Stats.mean s);
  check_float "variance" 0. (Stats.variance s)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 42.;
  Alcotest.(check int) "count" 1 (Stats.count s);
  check_float "mean" 42. (Stats.mean s);
  check_float "variance" 0. (Stats.variance s);
  check_float "min" 42. (Stats.min s);
  check_float "max" 42. (Stats.max s)

let test_stats_known_values () =
  let s = Stats.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean s);
  (* Sample variance with n-1 denominator: 32/7. *)
  check_float "variance" (32. /. 7.) (Stats.variance s);
  check_float "min" 2. (Stats.min s);
  check_float "max" 9. (Stats.max s);
  check_float "total" 40. (Stats.total s)

let test_stats_shift_invariance () =
  (* Welford must not lose precision under a large offset. *)
  let base = [| 1.; 2.; 3.; 4. |] in
  let shifted = Array.map (fun x -> x +. 1e9) base in
  let a = Stats.of_array base and b = Stats.of_array shifted in
  Alcotest.(check (float 1e-3))
    "variance invariant under shift" (Stats.variance a) (Stats.variance b)

let test_stats_min_empty_raises () =
  let s = Stats.create () in
  Alcotest.check_raises "min on empty"
    (Invalid_argument "Stats.min: empty") (fun () -> ignore (Stats.min s))

(* ------------------------------------------------------------ Histogram *)

let histogram_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

let test_histogram_quantiles () =
  let h = histogram_of [ 1; 2; 3; 4; 5 ] in
  check_float "median" 3. (Histogram.quantile h 0.5);
  check_float "q0" 1. (Histogram.quantile h 0.);
  check_float "q1" 5. (Histogram.quantile h 1.);
  check_float "q0.25" 2. (Histogram.quantile h 0.25);
  Alcotest.(check int) "max" 5 (Histogram.max h)

let test_histogram_interpolation () =
  let h = histogram_of [ 0; 10 ] in
  check_float "q0.5 interpolated" 5. (Histogram.quantile h 0.5);
  check_float "q0.3 interpolated" 3. (Histogram.quantile h 0.3)

let test_histogram_mean_count () =
  let h = histogram_of (List.init 10 (fun i -> i + 1)) in
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check int) "sum" 55 (Histogram.sum h);
  check_float "mean" 5.5 (Histogram.mean h)

let test_histogram_empty_raises () =
  let h = Histogram.create () in
  Alcotest.check_raises "quantile on empty"
    (Invalid_argument "Histogram.quantile: empty") (fun () ->
      ignore (Histogram.quantile h 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Histogram.quantile: q out of range") (fun () ->
      ignore (Histogram.quantile (histogram_of [ 1 ]) Float.nan));
  Alcotest.(check (list int)) "empty min/max/sum" [ 0; 0; 0 ]
    [ Histogram.min h; Histogram.max h; Histogram.sum h ]

(* ----------------------------------------------------------- Timeseries *)

let series_of_list xs =
  let t = Timeseries.create () in
  List.iter (Timeseries.add t) xs;
  t

let test_timeseries_basic () =
  let t = series_of_list [ 1.; 2.; 3. ] in
  Alcotest.(check int) "length" 3 (Timeseries.length t);
  check_float "get" 2. (Timeseries.get t 1);
  check_float "last" 3. (Timeseries.last t);
  check_float "mean" 2. (Timeseries.mean t);
  check_float "max" 3. (Timeseries.max t)

let test_timeseries_slope_linear () =
  let t = series_of_list (List.init 100 (fun i -> 3. +. (2. *. float_of_int i))) in
  check_float "slope of linear series" 2. (Timeseries.slope t);
  check_float "tail slope" 2. (Timeseries.tail_slope t ~fraction:0.5)

let test_timeseries_slope_constant () =
  let t = series_of_list (List.init 50 (fun _ -> 7.)) in
  check_float "slope of flat series" 0. (Timeseries.slope t);
  check_float "tail mean" 7. (Timeseries.tail_mean t ~fraction:0.5)

let test_timeseries_tail_mean () =
  let t = series_of_list [ 0.; 0.; 10.; 20. ] in
  check_float "tail mean over last half" 15. (Timeseries.tail_mean t ~fraction:0.5)

let test_timeseries_growth () =
  (* Flat then growing: the tail slope must see the growth. *)
  let t =
    series_of_list
      (List.init 100 (fun i -> if i < 50 then 1. else float_of_int (i - 49)))
  in
  Alcotest.(check bool) "tail slope positive" true
    (Timeseries.tail_slope t ~fraction:0.5 > 0.5)

let test_timeseries_to_array () =
  let t = series_of_list [ 5.; 6. ] in
  Alcotest.(check (array (float 0.))) "snapshot" [| 5.; 6. |]
    (Timeseries.to_array t)

(* ----------------------------------------------------------------- Util *)

let test_util_log2 () =
  check_float "log2 8" 3. (Util.log2 8.);
  Alcotest.(check int) "ceil_log2 9" 4 (Util.ceil_log2 9.);
  Alcotest.(check int) "ceil_log2 8" 3 (Util.ceil_log2 8.);
  Alcotest.(check int) "ceil_log2 1" 0 (Util.ceil_log2 1.);
  Alcotest.(check int) "ceil_log2 0.5" 0 (Util.ceil_log2 0.5)

let test_util_ceil_div () =
  Alcotest.(check int) "7/2" 4 (Util.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (Util.ceil_div 8 2);
  Alcotest.(check int) "0/5" 0 (Util.ceil_div 0 5);
  Alcotest.(check int) "1/5" 1 (Util.ceil_div 1 5)

let test_util_float_fold () =
  check_float "max" 4. (Util.float_max [| 1.; 4.; 2. |]);
  check_float "max empty" 0. (Util.float_max [||]);
  check_float "sum" 7. (Util.float_sum [| 1.; 4.; 2. |])

let test_util_group_by_key () =
  let buckets = Util.group_by_key ~size:3 (fun x -> x mod 3) [ 0; 1; 2; 3; 4; 6 ] in
  Alcotest.(check (list int)) "bucket 0" [ 0; 3; 6 ] buckets.(0);
  Alcotest.(check (list int)) "bucket 1" [ 1; 4 ] buckets.(1);
  Alcotest.(check (list int)) "bucket 2" [ 2 ] buckets.(2)

let test_util_misc () =
  Alcotest.(check (list int)) "range" [ 0; 1; 2 ] (Util.range 3);
  check_float "mean of ints" 2. (Util.mean_of_int_list [ 1; 2; 3 ]);
  check_float "mean of empty" 0. (Util.mean_of_int_list [])

(* ------------------------------------------------------------ property *)

(* The quantile algorithm the histogram must reproduce bit for bit: sort
   every sample, interpolate linearly between the order statistics
   around q·(n−1). *)
let reference_quantile xs q =
  let a = Array.of_list (List.map float_of_int xs) in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then a.(lo)
  else
    let frac = pos -. float_of_int lo in
    ((1. -. frac) *. a.(lo)) +. (frac *. a.(hi))

let exact_samples =
  QCheck.(list_of_size Gen.(int_range 1 80) (int_bound (Histogram.exact_bound - 1)))

(* Samples on both sides of the exact bound, so merges and quantiles
   cross into the overflow octaves. *)
let mixed_samples =
  QCheck.(list_of_size Gen.(int_range 1 60) (int_bound (1 lsl 20)))

let quantile_grid = [ 0.; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ]

let prop_histogram_exact_quantiles =
  QCheck.Test.make ~count:300
    ~name:"histogram exact below the bound"
    QCheck.(pair exact_samples (float_bound_inclusive 1.))
    (fun (xs, q) ->
      let h = histogram_of xs in
      List.for_all
        (fun q -> Histogram.quantile h q = reference_quantile xs q)
        (q :: quantile_grid))

let prop_histogram_overflow_error =
  QCheck.Test.make ~count:300
    ~name:"histogram within 2x above the bound"
    QCheck.(pair mixed_samples (float_bound_inclusive 1.))
    (fun (xs, q) ->
      let h = histogram_of xs in
      List.for_all
        (fun q ->
          let exact = reference_quantile xs q in
          Float.abs (Histogram.quantile h q -. exact) <= exact)
        (q :: quantile_grid))

let prop_histogram_merge_is_concat =
  QCheck.Test.make ~count:200 ~name:"histogram merge == concatenation"
    QCheck.(pair mixed_samples mixed_samples)
    (fun (xs, ys) ->
      let m = Histogram.merge (histogram_of xs) (histogram_of ys) in
      let c = histogram_of (xs @ ys) in
      Histogram.count m = Histogram.count c
      && Histogram.sum m = Histogram.sum c
      && Histogram.min m = Histogram.min c
      && Histogram.max m = Histogram.max c
      && List.for_all
           (fun q -> Histogram.quantile m q = Histogram.quantile c q)
           quantile_grid)

(* The accumulate-then-diff pattern dps_top lives on: a merge must look
   exactly like one histogram that saw both streams, so count/sum deltas
   taken against an earlier capture stay meaningful after aggregation. *)
let prop_histogram_merge_count_sum =
  QCheck.Test.make ~count:300 ~name:"histogram merge preserves count and sum"
    QCheck.(pair mixed_samples mixed_samples)
    (fun (xs, ys) ->
      let a = histogram_of xs and b = histogram_of ys in
      let m = Histogram.merge a b in
      Histogram.count m = Histogram.count a + Histogram.count b
      && Histogram.sum m = Histogram.sum a + Histogram.sum b)

let prop_histogram_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"histogram quantiles are monotone"
    QCheck.(pair mixed_samples (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (xs, (q1, q2)) ->
      let h = histogram_of xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let v1 = Histogram.quantile h lo and v2 = Histogram.quantile h hi in
      let slack = 1e-9 *. (1. +. v2) in
      v1 <= v2 +. slack
      && v1 >= float_of_int (Histogram.min h) -. slack
      && v2 <= float_of_int (Histogram.max h) +. slack)

let prop_stats_mean_bounds =
  QCheck.Test.make ~count:200 ~name:"stats mean lies within min/max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.of_array (Array.of_list xs) in
      Stats.mean s >= Stats.min s -. 1e-6 && Stats.mean s <= Stats.max s +. 1e-6)

let prop_timeseries_slope_shift_invariant =
  QCheck.Test.make ~count:200 ~name:"timeseries slope invariant under shift"
    QCheck.(list_of_size Gen.(int_range 2 40) (float_range (-1e3) 1e3))
    (fun xs ->
      let t1 = series_of_list xs in
      let t2 = series_of_list (List.map (fun x -> x +. 500.) xs) in
      Float.abs (Timeseries.slope t1 -. Timeseries.slope t2) < 1e-6)

let prop_rng_shuffle_preserves_multiset =
  QCheck.Test.make ~count:200 ~name:"shuffle preserves the multiset"
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Rng.create ~seed () in
      let a = Array.of_list xs in
      Rng.shuffle rng a;
      let sorted_before = List.sort compare xs in
      let sorted_after = List.sort compare (Array.to_list a) in
      sorted_before = sorted_after)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "prelude"
    [ ( "rng",
        [ quick "deterministic" test_rng_deterministic;
          quick "seed changes stream" test_rng_seed_changes_stream;
          quick "split independent" test_rng_split_independent;
          quick "int range" test_rng_int_range;
          quick "int_in range" test_rng_int_in_range;
          quick "int_in singleton" test_rng_int_in_singleton;
          quick "bernoulli extremes" test_rng_bernoulli_extremes;
          quick "bernoulli mean" test_rng_bernoulli_mean;
          quick "geometric support" test_rng_geometric_support;
          quick "geometric mean" test_rng_geometric_mean;
          quick "exponential mean" test_rng_exponential_mean;
          quick "shuffle permutation" test_rng_shuffle_permutation;
          quick "choose member" test_rng_choose_member;
          quick "sample without replacement" test_rng_sample_without_replacement;
          quick "sample full" test_rng_sample_full ] );
      ( "stats",
        [ quick "empty" test_stats_empty;
          quick "single" test_stats_single;
          quick "known values" test_stats_known_values;
          quick "shift invariance" test_stats_shift_invariance;
          quick "min empty raises" test_stats_min_empty_raises ] );
      ( "histogram",
        [ quick "quantiles" test_histogram_quantiles;
          quick "interpolation" test_histogram_interpolation;
          quick "mean and count" test_histogram_mean_count;
          quick "empty raises" test_histogram_empty_raises ] );
      ( "timeseries",
        [ quick "basic" test_timeseries_basic;
          quick "slope linear" test_timeseries_slope_linear;
          quick "slope constant" test_timeseries_slope_constant;
          quick "tail mean" test_timeseries_tail_mean;
          quick "growth detection" test_timeseries_growth;
          quick "to_array" test_timeseries_to_array ] );
      ( "util",
        [ quick "log2" test_util_log2;
          quick "ceil_div" test_util_ceil_div;
          quick "float folds" test_util_float_fold;
          quick "group_by_key" test_util_group_by_key;
          quick "misc" test_util_misc ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_histogram_quantile_monotone;
            prop_histogram_exact_quantiles;
            prop_histogram_overflow_error;
            prop_histogram_merge_is_concat;
            prop_histogram_merge_count_sum;
            prop_stats_mean_bounds;
            prop_timeseries_slope_shift_invariant;
            prop_rng_shuffle_preserves_multiset ] ) ]
