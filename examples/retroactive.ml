(* Streaming aggregation over a retroactively bounded feed.

     dune exec examples/retroactive.exe

   An audit log records facts shortly after they become true — a tuple
   may arrive up to a bounded number of positions out of order
   (Section 5.2: a retroactively bounded relation, approximated by a
   k-ordered relation).  The k-ordered aggregation tree exploits the
   bound: once a constant interval can no longer change, it is emitted
   downstream and its nodes garbage-collected, so the working set stays
   tiny no matter how long the feed runs.

   The demo streams 50,000 nearly ordered records, prints the first
   emitted results while the stream is still running, and compares the
   memory high-water mark against the plain aggregation tree. *)

open Temporal

let n = 50_000
let k = 16

let feed () =
  let spec =
    Workload.Spec.make ~n ~lifespan:1_000_000 ~short_max:500 ~seed:99 ()
  in
  Workload.Generate.k_ordered_intervals ~k ~percentage:0.10 spec

let () =
  let data = feed () in
  Printf.printf "streaming %d records, at most %d positions out of order\n\n"
    n k;

  let emitted = ref 0 in
  let tree =
    Tempagg.Korder_tree.create ~k
      ~on_emit:(fun interval count ->
        incr emitted;
        if !emitted <= 5 then
          Printf.printf "  emitted early: %-18s count=%d\n"
            (Interval.to_string interval)
            count)
      Tempagg.Monoid.count
  in
  Array.iter (fun (iv, _) -> Tempagg.Korder_tree.insert tree iv ()) data;
  Printf.printf "  ... %d constant intervals emitted before end of stream\n"
    !emitted;
  Printf.printf "  live tree at end of stream: %d nodes\n\n"
    (Tempagg.Korder_tree.live_nodes tree);
  let timeline = Tempagg.Korder_tree.finish tree in
  let ktree_stats =
    Tempagg.Instrument.snapshot (Tempagg.Korder_tree.instrument tree)
  in

  (* The plain aggregation tree computes the same answer but must hold
     every constant interval in memory until the end. *)
  let plain, plain_stats =
    Tempagg.Engine.eval_with_stats Tempagg.Engine.Aggregation_tree
      Tempagg.Monoid.count (Array.to_seq data)
  in
  assert (Timeline.equal Int.equal plain timeline);

  Printf.printf "results identical; %d constant intervals total\n\n"
    (Timeline.length timeline);
  Printf.printf "%-22s %14s %12s\n" "" "peak nodes" "peak bytes";
  Printf.printf "%-22s %14d %12d\n" "aggregation tree"
    plain_stats.Tempagg.Instrument.peak_live
    plain_stats.Tempagg.Instrument.peak_bytes;
  Printf.printf "%-22s %14d %12d\n"
    (Printf.sprintf "k-ordered tree (k=%d)" k)
    ktree_stats.Tempagg.Instrument.peak_live
    ktree_stats.Tempagg.Instrument.peak_bytes;
  Printf.printf "\nmemory reduction: %.0fx\n"
    (float_of_int plain_stats.Tempagg.Instrument.peak_bytes
    /. float_of_int ktree_stats.Tempagg.Instrument.peak_bytes)
