module Rng = Dps_prelude.Rng
module Timeseries = Dps_prelude.Timeseries
module Histogram = Dps_prelude.Histogram
module Path = Dps_network.Path
module Packet = Dps_sim.Packet
module Oracle = Dps_sim.Oracle
module Channel = Dps_sim.Channel

type report = {
  slots : int;
  injected : int;
  delivered : int;
  in_system : Timeseries.t;
  latency : Histogram.t;
  max_queue : int;
}

(* Greedy max-weight feasible set: links in decreasing queue-length order;
   accept a link when the grown set remains fully served by the oracle. *)
let greedy_set ?rng oracle weights =
  let links =
    List.filter (fun e -> weights.(e) > 0)
      (List.init (Array.length weights) Fun.id)
  in
  let by_weight =
    List.sort (fun a b -> compare weights.(b) weights.(a)) links
  in
  let feasible set =
    let granted = Oracle.adjudicate ?rng oracle set in
    List.length granted = List.length set
  in
  List.fold_left
    (fun chosen e -> if feasible (e :: chosen) then e :: chosen else chosen)
    [] by_weight

let run ~oracle ~m ~inject_slot ~slots ?sample rng =
  assert (m > 0 && slots > 0);
  let sample = Option.value ~default:(Int.max 1 (slots / 512)) sample in
  (* For Lossy oracles: the feasibility probe must not consume randomness
     differently from the transmission itself, so the greedy set is built
     against the deterministic core and losses land at Channel.step. *)
  let rec core = function Oracle.Lossy (base, _) -> core base | o -> o in
  let channel = Channel.create ~rng:(Rng.split rng) ~oracle ~m () in
  let queues : Packet.t Queue.t array = Array.init m (fun _ -> Queue.create ()) in
  let weights = Array.make m 0 in
  let injected = ref 0 and delivered = ref 0 in
  let next_id = ref 0 in
  let in_system = Timeseries.create () in
  let latency = Histogram.create () in
  let max_queue = ref 0 in
  let in_flight = ref 0 in
  for slot = 0 to slots - 1 do
    List.iter
      (fun path ->
        let p = Packet.make ~id:!next_id ~path ~injected_slot:slot in
        incr next_id;
        incr injected;
        incr in_flight;
        let link = Packet.next_link p in
        Queue.add p queues.(link);
        weights.(link) <- weights.(link) + 1)
      (inject_slot slot);
    let chosen = greedy_set (core oracle) weights in
    let succeeded = Channel.step channel chosen in
    List.iter
      (fun link ->
        let p = Queue.pop queues.(link) in
        weights.(link) <- weights.(link) - 1;
        Packet.advance p ~slot:(Channel.now channel);
        if Packet.delivered p then begin
          incr delivered;
          decr in_flight;
          match Packet.latency p with
          | Some l -> Histogram.add latency l
          | None -> assert false
        end
        else begin
          let next = Packet.next_link p in
          Queue.add p queues.(next);
          weights.(next) <- weights.(next) + 1
        end)
      succeeded;
    if !in_flight > !max_queue then max_queue := !in_flight;
    if slot mod sample = 0 then
      Timeseries.add in_system (float_of_int !in_flight)
  done;
  { slots;
    injected = !injected;
    delivered = !delivered;
    in_system;
    latency;
    max_queue = !max_queue }

let verdict r = Stability.assess r.in_system
