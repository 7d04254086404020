let test_per_thread_isolation () =
  let key = Tls.new_key (fun () -> ref 0) in
  Tls.get key := 1;
  let seen = ref (-1) in
  let th =
    Thread.create
      (fun () ->
        (* a fresh thread sees a fresh slot *)
        seen := !(Tls.get key);
        Tls.set key (ref 42))
      ()
  in
  Thread.join th;
  Alcotest.(check int) "other thread starts from init" 0 !seen;
  Alcotest.(check int) "this thread kept its value" 1 !(Tls.get key)

let test_lazy_init_once () =
  let calls = ref 0 in
  let key =
    Tls.new_key (fun () ->
      incr calls;
      "v")
  in
  ignore (Tls.get key);
  ignore (Tls.get key);
  Alcotest.(check int) "init ran once" 1 !calls

let test_set_get_clear () =
  let key = Tls.new_key (fun () -> "default") in
  Alcotest.(check string) "default" "default" (Tls.get key);
  Tls.set key "changed";
  Alcotest.(check string) "changed" "changed" (Tls.get key);
  Tls.clear key;
  Alcotest.(check string) "re-initialised" "default" (Tls.get key)

let test_switch_routing () =
  let key = Tls.new_key (fun () -> 0) in
  Tls.set key 7;
  let t1 = Tls.fresh () and t2 = Tls.fresh () in
  let outer = Tls.switch t1 in
  Fun.protect ~finally:(fun () -> ignore (Tls.switch outer)) (fun () ->
    Alcotest.(check bool) "switched in" true (Tls.current () == t1);
    Tls.set key 100;
    ignore (Tls.switch t2);
    Alcotest.(check int) "t2 starts fresh" 0 (Tls.get key);
    Tls.set key 200;
    ignore (Tls.switch t1);
    Alcotest.(check int) "t1 kept its value" 100 (Tls.get key));
  Alcotest.(check bool) "switched back" true (Tls.current () == outer);
  Alcotest.(check int) "outer context restored" 7 (Tls.get key)

(* The hot fields travel with their context, like the slots. *)
let test_hot_fields_per_context () =
  let host = Tls.current () in
  let saved = Tls.pkru host in
  let c = Tls.fresh () in
  Alcotest.(check int) "fresh pkru" Tls.init_pkru (Tls.pkru c);
  Alcotest.(check bool) "fresh kernel flag" false (Tls.kernel c);
  let outer = Tls.switch c in
  Tls.set_pkru (Tls.current ()) 0x3;
  Tls.set_kernel (Tls.current ()) true;
  ignore (Tls.switch outer);
  Alcotest.(check int) "host pkru untouched" saved (Tls.pkru (Tls.current ()));
  Alcotest.(check bool) "host kernel flag untouched" false
    (Tls.kernel (Tls.current ()));
  Alcotest.(check int) "context kept its pkru" 0x3 (Tls.pkru c);
  Alcotest.(check bool) "context kept its flag" true (Tls.kernel c)

(* Two real threads taking turns: every turn is an OS-thread switch, so
   the pointer must be re-resolved by [Thread.id] each time rather than
   leak the other thread's slots or registers. *)
let test_real_threads_alternate () =
  let key = Tls.new_key (fun () -> ref 0) in
  let m = Mutex.create () and turn = Condition.create () in
  let whose = ref 0 and seen = Array.make 2 [] in
  let body me () =
    Pku.Pkru.wrpkru (me + 1);
    for _ = 1 to 5 do
      Mutex.lock m;
      while !whose <> me do
        Condition.wait turn m
      done;
      let cell = Tls.get key in
      cell := !cell + (10 * (me + 1));
      seen.(me) <- (!cell, Pku.Pkru.read ()) :: seen.(me);
      whose := 1 - me;
      Condition.broadcast turn;
      Mutex.unlock m
    done
  in
  let ths = List.init 2 (fun me -> Thread.create (body me) ()) in
  List.iter Thread.join ths;
  let expect me =
    List.init 5 (fun i -> ((5 - i) * 10 * (me + 1), me + 1))
  in
  Alcotest.(check (list (pair int int))) "thread 0 own slot and pkru"
    (expect 0) seen.(0);
  Alcotest.(check (list (pair int int))) "thread 1 own slot and pkru"
    (expect 1) seen.(1);
  Alcotest.(check int) "main thread slot untouched" 0 !(Tls.get key)

let test_kernel_mode_restores_on_raise () =
  Alcotest.(check bool) "starts off" false (Shm.Region.in_kernel_mode ());
  (match
     Shm.Region.kernel_mode (fun () ->
       Alcotest.(check bool) "on inside" true (Shm.Region.in_kernel_mode ());
       (* nested: the inner call must not switch the outer one off *)
       (try Shm.Region.kernel_mode (fun () -> failwith "inner")
        with Failure _ -> ());
       Alcotest.(check bool) "still on after inner raise" true
         (Shm.Region.in_kernel_mode ());
       failwith "outer")
   with
   | () -> Alcotest.fail "expected the body's exception"
   | exception Failure m ->
     Alcotest.(check string) "body's exception" "outer" m);
  Alcotest.(check bool) "off after raise" false (Shm.Region.in_kernel_mode ());
  Alcotest.(check int) "value through" 42
    (Shm.Region.kernel_mode (fun () -> 42));
  Alcotest.(check bool) "off after return" false (Shm.Region.in_kernel_mode ())

let test_distinct_keys_independent () =
  let k1 = Tls.new_key (fun () -> 1) and k2 = Tls.new_key (fun () -> 2) in
  Tls.set k1 10;
  Alcotest.(check int) "k2 untouched" 2 (Tls.get k2)

let () =
  Alcotest.run "tls"
    [ ( "tls",
        [ Alcotest.test_case "per-thread isolation" `Quick
            test_per_thread_isolation;
          Alcotest.test_case "lazy init once" `Quick test_lazy_init_once;
          Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
          Alcotest.test_case "switch routing" `Quick test_switch_routing;
          Alcotest.test_case "hot fields per context" `Quick
            test_hot_fields_per_context;
          Alcotest.test_case "real threads alternate" `Quick
            test_real_threads_alternate;
          Alcotest.test_case "kernel_mode restores on raise" `Quick
            test_kernel_mode_restores_on_raise;
          Alcotest.test_case "distinct keys" `Quick
            test_distinct_keys_independent ] ) ]
