type task = unit -> unit

type t = {
  jobs : int;
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* OCaml 5.1 runs at most 128 domains at once (Max_domains in
   caml/domain.h), the main domain included. [jobs] counts the calling
   domain; one more slot stays free for the Obs.Timeline ticker. *)
let max_jobs = 127

let check_jobs fn jobs =
  if jobs < 1 then invalid_arg (fn ^ ": jobs must be >= 1");
  if jobs > max_jobs then
    invalid_arg (Printf.sprintf "%s: jobs must be <= %d" fn max_jobs)

let recommended_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let jobs t = t.jobs

let worker_loop pool =
  let rec take () =
    Mutex.lock pool.mutex;
    let rec wait () =
      if pool.stop then begin
        Mutex.unlock pool.mutex;
        None
      end
      else if Queue.is_empty pool.queue then begin
        Condition.wait pool.nonempty pool.mutex;
        wait ()
      end
      else begin
        let task = Queue.pop pool.queue in
        Mutex.unlock pool.mutex;
        Some task
      end
    in
    match wait () with
    | None -> ()
    | Some task ->
      (* Tasks are wrapped by the submitter and never raise. *)
      task ();
      take ()
  in
  take ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  check_jobs "Pool.create" jobs;
  let pool =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      stop = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  let workers =
    Mutex.lock pool.mutex;
    let ws = pool.workers in
    pool.stop <- true;
    pool.workers <- [];
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex;
    ws
  in
  List.iter Domain.join workers

let submit pool task =
  Mutex.lock pool.mutex;
  Queue.push task pool.queue;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.mutex

(* Sequential fallback with a guaranteed 0..n-1 evaluation order (Array.init
   leaves the order unspecified). *)
let sequential_init n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

(* Telemetry: [pool.items] is a deterministic logical count (bumped inside
   item execution, so the finish-mutex handshake orders every increment
   before the caller returns); [pool.items_per_steal] and the span layout
   depend on scheduling and are flagged as timing data. *)
let c_regions = Obs.Counter.make "pool.regions"

let c_items = Obs.Counter.make "pool.items"

let sk_items_per_steal = Obs.Sketchm.make ~timing:true "pool.items_per_steal"

(* Every item runs bracketed as a Timeline snapshot unit: a periodic
   capture drains in-flight items at these boundaries, so it never
   observes a half-executed item's metric writes. Unconditional (not
   gated on [Obs.enabled]) so begin/end pairing survives mid-region
   enable/disable toggles; the cost is two atomic ops per item. *)
let run_item f i =
  Obs.Timeline.item_begin ();
  Fun.protect ~finally:Obs.Timeline.item_end (fun () ->
      let v = f i in
      Obs.Counter.incr c_items;
      v)

let parallel_init_array pool n f =
  if n < 0 then invalid_arg "Pool.parallel_init_array: negative length";
  if n = 0 then [||]
  else if pool.jobs = 1 || n = 1 then begin
    Obs.Counter.incr c_regions;
    Obs.with_span
      ~argsf:(fun () -> [ ("items", string_of_int n) ])
      "pool.region"
      (fun () -> sequential_init n (run_item f))
  end
  else begin
    Obs.Counter.incr c_regions;
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let finish_mutex = Mutex.create () in
    let finished = Condition.create () in
    let completed = ref 0 in
    let error = ref None in
    (* Dynamic index-stealing: every participant (the caller plus up to
       jobs-1 pool workers) claims indices from a shared counter, so
       uneven per-index costs balance automatically. Results land in
       their index's slot, which keeps the output independent of how
       work was interleaved. *)
    let steal () =
      let mine = ref 0 in
      Obs.with_span
        ~argsf:(fun () -> [ ("items", string_of_int !mine) ])
        "pool.steal"
        (fun () ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (match run_item f i with
              | v -> slots.(i) <- Some v
              | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                Mutex.lock finish_mutex;
                if !error = None then error := Some (e, bt);
                Mutex.unlock finish_mutex);
              incr mine;
              Mutex.lock finish_mutex;
              incr completed;
              if !completed = n then Condition.signal finished;
              Mutex.unlock finish_mutex;
              loop ()
            end
          in
          loop ());
      Obs.Sketchm.observe sk_items_per_steal (float_of_int !mine)
    in
    let helpers = min (pool.jobs - 1) (n - 1) in
    Obs.with_span
      ~argsf:(fun () -> [ ("items", string_of_int n) ])
      "pool.region"
      (fun () ->
        for _ = 1 to helpers do
          submit pool steal
        done;
        steal ();
        Mutex.lock finish_mutex;
        while !completed < n do
          Condition.wait finished finish_mutex
        done;
        Mutex.unlock finish_mutex);
    (match !error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) slots
  end

let map_reduce pool ~n ~map ~combine ~init =
  (* Results are always folded in index order on the caller, so the value
     is byte-identical at every jobs count even when [combine] is not
     exactly associative (floating-point sums). *)
  Array.fold_left combine init (parallel_init_array pool n map)

(* The process-wide default pool, configured once by the CLI layer and
   created lazily on first use. *)

let default_pool = ref None

let requested_default_jobs = ref None

let at_exit_registered = ref false

let set_default_jobs j =
  check_jobs "Pool.set_default_jobs" j;
  requested_default_jobs := Some j;
  match !default_pool with
  | Some p when p.jobs <> j ->
    default_pool := None;
    shutdown p
  | Some _ | None -> ()

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let jobs =
      match !requested_default_jobs with
      | Some j -> j
      | None -> recommended_jobs ()
    in
    let p = create ~jobs () in
    default_pool := Some p;
    if not !at_exit_registered then begin
      at_exit_registered := true;
      at_exit (fun () ->
          match !default_pool with
          | Some p ->
            default_pool := None;
            shutdown p
          | None -> ())
    end;
    p
