% Dead stores inside loops that leave early. In each iteration the first
% expression statement's ans is overwritten before any read, ahead of the
% break or continue; dse_early.m does the same before a return. u's first
% store is read only after the break: falling through overwrites it.
v = rand(1, 12);
s = 0;
u = v';
for k = 1:12
  (v .* k)';
  ans = v .* k;
  s = s + ans(1, k);
  u = (v .* k)';
  if k == 9
    break;
  end
  u = (v + k)';
end
t = 0;
j = 0;
while j < 10
  j = j + 1;
  (v + j)' * (v - j);
  ans = v - j;
  t = t + ans(1, j);
  if j > 5
    continue;
  end
  t = t + v(j);
end
w = dse_early(v, 6);
fprintf('loops %.6f %.6f %.6f %.6f %.6f\n', s, t, u(3), w(2), w(11));
