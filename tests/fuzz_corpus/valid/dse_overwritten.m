% Dead stores the optimizer deletes: communicating results overwritten
% before any read. At top level an expression statement stores ans; in
% dse_twice.m a function's output is assigned twice.
a = rand(6, 6);
a * a';
ans = a + 2;
b = dse_twice(a);
c = ans - b;
fprintf('overwritten %.6f %.6f\n', c(2, 3), b(4, 1));
